package bitstream

import (
	"bytes"
	"testing"
)

// fuzzLayout is small enough for the fuzzer to hit every frame and odd
// enough to catch layout mix-ups: rows, columns and planes all differ, and
// the nine frames do not fill a dirty-set word.
var fuzzLayout = Layout{Rows: 4, Cols: 3, BytesPerTile: 3}

// fuzzBase gives both models the same non-blank starting contents, so a
// frame a stream rewrites with the bytes already there must stay clean.
func fuzzBase(set func(row, col, bit int, v bool) error) {
	for _, p := range [][3]int{{1, 1, 3}, {0, 0, 0}, {3, 2, 23}, {2, 1, 8}, {2, 0, 17}} {
		set(p[0], p[1], p[2], true)
	}
}

// FuzzApplyConfig feeds arbitrary byte streams to the configuration parser
// and to the reference model: neither may panic or write out of bounds, and
// they must agree on the error, the frames-written count, every frame's
// bytes, the dirty set and the partial stream that ships it.
func FuzzApplyConfig(f *testing.F) {
	src, err := New(fuzzLayout)
	if err != nil {
		f.Fatal(err)
	}
	fuzzBase(src.SetBit)
	src.SetBit(3, 1, 12, true)
	good, err := src.FullConfig()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	f.Add([]byte{0xAA, 0x99, 0x55, 0x66})
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	frame := func(v byte) []byte { return bytes.Repeat([]byte{v}, fuzzLayout.Rows) }
	two := append(frame(0x11), frame(0x22)...)
	// A multi-plane run, then a second FDRI that relies on FAR having moved.
	f.Add(newRefStream(fuzzLayout).far(1, 0).fdri(two...).fdri(frame(0x33)...).check().desync())
	// A run that walks past the last plane of its column.
	f.Add(newRefStream(fuzzLayout).far(0, 2).fdri(two...).check().desync())
	// A CRC opcode mid-stream (right, then wrong at the end).
	f.Add(newRefStream(fuzzLayout).far(2, 1).fdri(frame(0x44)...).check().far(0, 0).fdri(frame(0x55)...).bytes(opCRC, 0, 0).desync())
	// FDRI before FAR, and a truncated FDRI.
	f.Add(newRefStream(fuzzLayout).fdri(frame(0x66)...).check().desync())
	f.Add(newRefStream(fuzzLayout).far(1, 1).bytes(opWriteFDRI).u32(8).bytes(1, 2, 3).buf)

	f.Fuzz(func(t *testing.T, stream []byte) {
		dst, err := New(fuzzLayout)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(fuzzLayout)
		fuzzBase(dst.SetBit)
		fuzzBase(ref.SetBit)
		dst.ClearDirty()
		ref.ClearDirty()

		n, err := dst.ApplyConfig(stream)
		refN, refErr := ref.ApplyConfig(stream)
		if (err == nil) != (refErr == nil) || n != refN {
			t.Fatalf("ApplyConfig = %d, %v; reference %d, %v", n, err, refN, refErr)
		}
		if err := ref.sameAs(dst); err != nil {
			t.Fatal(err)
		}
		part, err := dst.PartialConfig()
		refPart, refErr := ref.PartialConfig()
		if err != nil || refErr != nil || !bytes.Equal(part, refPart) {
			t.Fatalf("PartialConfig = %x, %v; reference %x, %v", part, err, refPart, refErr)
		}
	})
}
