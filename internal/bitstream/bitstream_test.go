package bitstream

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, rows, cols, bpt int) *Bitstream {
	t.Helper()
	b, err := New(Layout{Rows: rows, Cols: cols, BytesPerTile: bpt})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLayoutValidation(t *testing.T) {
	for _, l := range []Layout{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {-1, 4, 4}} {
		if _, err := New(l); err == nil {
			t.Errorf("layout %+v accepted", l)
		}
	}
}

func TestSetGetBit(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	if err := b.SetBit(2, 3, 17, true); err != nil {
		t.Fatal(err)
	}
	v, err := b.GetBit(2, 3, 17)
	if err != nil || !v {
		t.Fatalf("GetBit = %v, %v", v, err)
	}
	// Neighbouring bits untouched.
	for _, bit := range []int{16, 18} {
		v, _ := b.GetBit(2, 3, bit)
		if v {
			t.Errorf("bit %d set spuriously", bit)
		}
	}
	if err := b.SetBit(2, 3, 17, false); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.GetBit(2, 3, 17); v {
		t.Error("bit not cleared")
	}
}

func TestBitBounds(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	bad := [][3]int{{-1, 0, 0}, {4, 0, 0}, {0, -1, 0}, {0, 6, 0}, {0, 0, -1}, {0, 0, 24}}
	for _, c := range bad {
		if err := b.SetBit(c[0], c[1], c[2], true); err == nil {
			t.Errorf("SetBit(%v) accepted", c)
		}
		if _, err := b.GetBit(c[0], c[1], c[2]); err == nil {
			t.Errorf("GetBit(%v) accepted", c)
		}
	}
}

func TestSetGetBits(t *testing.T) {
	b := mustNew(t, 2, 2, 16)
	const v = uint64(0xBEEF)
	if err := b.SetBits(1, 1, 40, 16, v); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetBits(1, 1, 40, 16)
	if err != nil || got != v {
		t.Fatalf("GetBits = %#x, %v; want %#x", got, err, v)
	}
	if _, err := b.GetBits(1, 1, 0, 65); err == nil {
		t.Error("width 65 accepted")
	}
	if err := b.SetBits(1, 1, 0, -1, 0); err == nil {
		t.Error("negative width accepted")
	}
}

func TestDirtyTracking(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	if n := len(b.DirtyFrames()); n != 0 {
		t.Fatalf("fresh bitstream has %d dirty frames", n)
	}
	b.SetBit(2, 3, 17, true) // plane 2 of col 3
	dirty := b.DirtyFrames()
	if len(dirty) != 1 || dirty[0] != (FrameAddr{Col: 3, Plane: 2}) {
		t.Fatalf("dirty = %v", dirty)
	}
	// Writing the same value again must not re-dirty after a clear.
	b.ClearDirty()
	b.SetBit(2, 3, 17, true)
	if n := len(b.DirtyFrames()); n != 0 {
		t.Errorf("idempotent write dirtied %d frames", n)
	}
	b.SetBit(2, 3, 17, false)
	if n := len(b.DirtyFrames()); n != 1 {
		t.Errorf("clearing a set bit dirtied %d frames, want 1", n)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	fa := FrameAddr{Col: 5, Plane: 1}
	in := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := b.LoadFrame(fa, in); err != nil {
		t.Fatal(err)
	}
	out, err := b.Frame(fa)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("frame round trip: %x != %x", out, in)
		}
	}
	// The frame's bytes must land in the per-tile space of each row.
	for r := 0; r < 4; r++ {
		got, _ := b.GetBits(r, 5, 8, 8)
		if byte(got) != in[r] {
			t.Errorf("row %d byte plane 1 = %#x, want %#x", r, got, in[r])
		}
	}
	if err := b.LoadFrame(fa, []byte{1}); err == nil {
		t.Error("short frame accepted")
	}
	if err := b.LoadFrame(FrameAddr{Col: 99, Plane: 0}, in); err == nil {
		t.Error("out-of-range frame accepted")
	}
}

func TestFullConfigRoundTrip(t *testing.T) {
	src := mustNew(t, 8, 12, 5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src.SetBit(rng.Intn(8), rng.Intn(12), rng.Intn(40), true)
	}
	stream, err := src.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	dst := mustNew(t, 8, 12, 5)
	n, err := dst.ApplyConfig(stream)
	if err != nil {
		t.Fatal(err)
	}
	if n != src.FrameCount() {
		t.Errorf("full config wrote %d frames, want %d", n, src.FrameCount())
	}
	if !dst.Equal(src) {
		t.Error("full config round trip mismatch")
	}
}

func TestPartialConfigWritesOnlyDirty(t *testing.T) {
	src := mustNew(t, 8, 12, 5)
	dst := mustNew(t, 8, 12, 5)
	// Establish a common base.
	src.SetBit(1, 1, 3, true)
	full, _ := src.FullConfig()
	if _, err := dst.ApplyConfig(full); err != nil {
		t.Fatal(err)
	}
	src.ClearDirty()
	// A small change -> a small partial stream.
	src.SetBit(7, 11, 39, true)
	partial, err := src.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.ApplyConfig(partial)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("partial config wrote %d frames, want 1", n)
	}
	if !dst.Equal(src) {
		t.Error("partial config did not converge the device")
	}
	if len(partial) >= len(full)/10 {
		t.Errorf("partial stream (%d bytes) not much smaller than full (%d bytes)",
			len(partial), len(full))
	}
}

func TestApplyConfigRejectsCorruption(t *testing.T) {
	src := mustNew(t, 4, 4, 2)
	src.SetBit(0, 0, 0, true)
	stream, _ := src.FullConfig()

	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), stream...)
	bad[len(bad)/2] ^= 0xFF
	dst := mustNew(t, 4, 4, 2)
	if _, err := dst.ApplyConfig(bad); err == nil {
		t.Error("corrupted stream accepted")
	}

	// Truncation.
	dst = mustNew(t, 4, 4, 2)
	if _, err := dst.ApplyConfig(stream[:len(stream)-3]); err == nil {
		t.Error("truncated stream accepted")
	}

	// Wrong sync word.
	bad = append([]byte(nil), stream...)
	bad[0] = 0
	if _, err := dst.ApplyConfig(bad); err == nil {
		t.Error("bad sync word accepted")
	}

	// Wrong geometry.
	other := mustNew(t, 4, 8, 2)
	if _, err := other.ApplyConfig(stream); err == nil {
		t.Error("stream for wrong device accepted")
	}
}

func TestDiffFrames(t *testing.T) {
	a := mustNew(t, 4, 4, 2)
	b := mustNew(t, 4, 4, 2)
	d, err := a.DiffFrames(b)
	if err != nil || len(d) != 0 {
		t.Fatalf("identical bitstreams differ: %v %v", d, err)
	}
	b.SetBit(2, 1, 9, true) // col 1, plane 1
	d, err = a.DiffFrames(b)
	if err != nil || len(d) != 1 || d[0] != (FrameAddr{Col: 1, Plane: 1}) {
		t.Fatalf("diff = %v, %v", d, err)
	}
	c := mustNew(t, 4, 5, 2)
	if _, err := a.DiffFrames(c); err == nil {
		t.Error("layout mismatch accepted")
	}
}

func TestClone(t *testing.T) {
	a := mustNew(t, 4, 4, 2)
	a.SetBit(1, 1, 1, true)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs")
	}
	if len(c.DirtyFrames()) != 0 {
		t.Error("clone inherited dirty set")
	}
	c.SetBit(0, 0, 0, true)
	if a.Equal(c) {
		t.Error("clone shares storage with original")
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/XMODEM("123456789") = 0x31C3.
	if got := crc16(0, []byte("123456789")); got != 0x31C3 {
		t.Errorf("crc16 check value = %#04x, want 0x31C3", got)
	}
}

// The sliced CRC against the bit-at-a-time one: every length that mixes
// eight-byte steps with a tail, random contents, random running crc.
func TestCRC16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 4; trial++ {
			data := make([]byte, n)
			rng.Read(data)
			init := uint16(rng.Intn(1 << 16))
			if trial == 0 {
				init = 0
			}
			if got, want := crc16(init, data), refCRC16(init, data); got != want {
				t.Fatalf("crc16(%#04x, %d bytes) = %#04x, reference %#04x", init, n, got, want)
			}
		}
	}
}

// The packet stream is an ABI: boards, client mirrors and the scenario
// goldens all parse it. These bytes were generated by the tile-major,
// gather-per-frame writer this package had before it went frame-major; the
// partial stream pins run coalescing (col 1, planes 0-2 in one FDRI) and a
// second FAR for an isolated frame (col 3, plane 2).
func TestStreamABI(t *testing.T) {
	const (
		wantFull = "aa995566000000060000000500000004" +
			"010000000000000000020000001801000000000000000000a00000000000b400000000000000" +
			"0100000001000000000200000018000000000000000002000000000000000000000000000000" +
			"0100000002000000000200000018000000000000000000000000000000810000000000000000" +
			"010000000300000000020000001800e00000000000fe00000000000f00000000000c00000000" +
			"0100000004000000000200000018000000000000000000000000000000000000000000000080" +
			"03626804"
		wantPartial = "aa995566000000060000000500000004" +
			"0100000001000000000200000012" + "000068000001" + "000080000000" + "000017000000" +
			"0100000003000000020200000006" + "100f00000000" +
			"03b2d804"
	)
	b := mustNew(t, 6, 5, 4)
	b.SetBit(0, 0, 0, true)
	b.SetBit(5, 4, 31, true)
	b.SetBit(2, 1, 9, true)
	b.SetBit(3, 2, 16, true)
	b.SetBit(3, 2, 23, true)
	b.SetBits(1, 3, 4, 24, 0xC0FFEE)
	b.SetBits(4, 0, 13, 11, 0x5A5)
	full, err := b.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(full); got != wantFull {
		t.Errorf("FullConfig bytes changed:\n got %s\nwant %s", got, wantFull)
	}
	b.ClearDirty()
	b.SetBits(2, 1, 3, 18, 0x2F00D) // col 1, planes 0-2: one coalesced run
	b.SetBit(5, 1, 0, true)         // the same run, another row
	b.SetBit(0, 3, 20, true)        // col 3, plane 2: an isolated frame
	b.SetBit(0, 0, 0, true)         // already set: col 0 must stay clean
	partial, err := b.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(partial); got != wantPartial {
		t.Errorf("PartialConfig bytes changed:\n got %s\nwant %s", got, wantPartial)
	}
	appended, err := b.AppendPartialConfig(make([]byte, 0, 256))
	if err != nil || !bytes.Equal(appended, partial) {
		t.Errorf("AppendPartialConfig = %x, %v; want the PartialConfig bytes", appended, err)
	}
	explicit, err := b.ConfigFor(b.DirtyFrames())
	if err != nil || !bytes.Equal(explicit, partial) {
		t.Errorf("ConfigFor(DirtyFrames) = %x, %v; want the PartialConfig bytes", explicit, err)
	}
}

// An FDRI burst advances FAR by the planes it wrote, as the stream format
// says, so a second FDRI without a FAR continues where the first stopped.
func TestFDRIAdvancesFAR(t *testing.T) {
	l := Layout{Rows: 2, Cols: 3, BytesPerTile: 4}
	stream := newRefStream(l).far(1, 1).fdri(0xA1, 0xA2, 0xB1, 0xB2).fdri(0xC1, 0xC2).check().desync()
	b := mustNew(t, l.Rows, l.Cols, l.BytesPerTile)
	n, err := b.ApplyConfig(stream)
	if err != nil || n != 3 {
		t.Fatalf("ApplyConfig = %d, %v; want 3 frames", n, err)
	}
	for plane, want := range map[int][]byte{0: {0, 0}, 1: {0xA1, 0xA2}, 2: {0xB1, 0xB2}, 3: {0xC1, 0xC2}} {
		if got, _ := b.Frame(FrameAddr{Col: 1, Plane: plane}); !bytes.Equal(got, want) {
			t.Errorf("col 1 plane %d = %x, want %x", plane, got, want)
		}
	}
}

// A burst that walks past the last plane of its column is rejected at the
// frame that leaves it. In frame-major storage those bytes would otherwise
// land in the next column's plane 0 without any index going out of range.
func TestFDRIPastLastPlaneRejected(t *testing.T) {
	l := Layout{Rows: 2, Cols: 3, BytesPerTile: 4}
	stream := newRefStream(l).far(1, 3).fdri(0xA1, 0xA2, 0xB1, 0xB2).check().desync()
	b := mustNew(t, l.Rows, l.Cols, l.BytesPerTile)
	n, err := b.ApplyConfig(stream)
	if err == nil || n != 1 {
		t.Fatalf("ApplyConfig = %d, %v; want 1 frame and an error", n, err)
	}
	if got, _ := b.Frame(FrameAddr{Col: 2, Plane: 0}); !bytes.Equal(got, []byte{0, 0}) {
		t.Errorf("overflowing burst wrote %x into the next column", got)
	}
	if _, err := b.ConfigFor([]FrameAddr{{Col: 1, Plane: 3}, {Col: 1, Plane: 4}}); err == nil {
		t.Error("ConfigFor accepted a run past the last plane")
	}
}

// Frames are latched as they stream in: a stream whose CRC is wrong fails
// at the CRC opcode, with its frames already written.
func TestApplyConfigLatchesBeforeCRC(t *testing.T) {
	l := Layout{Rows: 2, Cols: 3, BytesPerTile: 4}
	stream := newRefStream(l).far(0, 2).fdri(0xA1, 0xA2).bytes(opCRC, 0xDE, 0xAD).far(2, 0).fdri(0xB1, 0xB2).check().desync()
	b := mustNew(t, l.Rows, l.Cols, l.BytesPerTile)
	n, err := b.ApplyConfig(stream)
	if err == nil || n != 1 {
		t.Fatalf("ApplyConfig = %d, %v; want 1 frame and a CRC error", n, err)
	}
	if got, _ := b.Frame(FrameAddr{Col: 0, Plane: 2}); !bytes.Equal(got, []byte{0xA1, 0xA2}) {
		t.Errorf("frame before the bad CRC = %x, want it latched", got)
	}
	if got, _ := b.Frame(FrameAddr{Col: 2, Plane: 0}); !bytes.Equal(got, []byte{0, 0}) {
		t.Errorf("frame after the bad CRC = %x, want it unwritten", got)
	}
}

// SetBits/GetBits move whole bytes; the per-bit loop they replaced is the
// reference. Fields start unaligned, run 0-64 bits wide across up to nine
// byte planes, and fall off every edge of the tile and the array.
func TestBitsMatchPerBitLoop(t *testing.T) {
	l := Layout{Rows: 3, Cols: 2, BytesPerTile: 11}
	b := mustNew(t, l.Rows, l.Cols, l.BytesPerTile)
	ref := newRef(l)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		row, col := rng.Intn(l.Rows+2)-1, rng.Intn(l.Cols+2)-1
		if rng.Intn(4) != 0 { // mostly on the array, so most fields land
			row, col = rng.Intn(l.Rows), rng.Intn(l.Cols)
		}
		start, width, v := rng.Intn(8*l.BytesPerTile+8)-4, rng.Intn(67)-1, rng.Uint64()
		if rng.Intn(8) == 0 {
			v = 0 // clears bits earlier fields set
		}
		if i%500 == 0 {
			b.ClearDirty()
			ref.ClearDirty()
		}
		next := ref.clone()
		setErr, refErr := b.SetBits(row, col, start, width, v), next.SetBits(row, col, start, width, v)
		if (setErr == nil) != (refErr == nil) {
			t.Fatalf("SetBits(%d,%d,%d,%d) = %v; per-bit loop %v", row, col, start, width, setErr, refErr)
		}
		if setErr == nil {
			ref = next // a rejected field writes nothing; the per-bit loop wrote its in-range prefix
		}
		if err := ref.sameAs(b); err != nil {
			t.Fatalf("after SetBits(%d,%d,%d,%d,%#x) = %v: %v", row, col, start, width, v, setErr, err)
		}
		got, err := b.GetBits(row, col, start, width)
		want, refErr := ref.GetBits(row, col, start, width)
		if (err == nil) != (refErr == nil) || got != want {
			t.Fatalf("GetBits(%d,%d,%d,%d) = %#x, %v; per-bit loop %#x, %v", row, col, start, width, got, err, want, refErr)
		}
	}
}

// Property: any sequence of SetBit operations is faithfully reproduced on a
// second device via FullConfig.
func TestConfigTransferProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		src := mustNew(t, 6, 6, 4)
		for _, op := range ops {
			r := int(op % 6)
			c := int(op / 6 % 6)
			bit := int(op / 36 % 32)
			src.SetBit(r, c, bit, op&0x80000000 != 0)
		}
		stream, err := src.FullConfig()
		if err != nil {
			return false
		}
		dst := mustNew(t, 6, 6, 4)
		if _, err := dst.ApplyConfig(stream); err != nil {
			return false
		}
		return dst.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: partial config after ClearDirty converges a synchronized copy.
func TestPartialConvergenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		src := mustNew(t, 6, 6, 4)
		dst := mustNew(t, 6, 6, 4)
		full, _ := src.FullConfig()
		dst.ApplyConfig(full)
		src.ClearDirty()
		for _, op := range ops {
			src.SetBit(int(op%6), int(op/6%6), int(op/36%32), true)
		}
		partial, err := src.PartialConfig()
		if err != nil {
			return false
		}
		if _, err := dst.ApplyConfig(partial); err != nil {
			return false
		}
		return dst.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
