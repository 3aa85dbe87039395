package bitstream

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Reference models. refCRC16 and refBitstream are the implementation this
// package had before storage went frame-major: a bit-at-a-time CRC,
// tile-major bytes (data[(row*Cols+col)*BytesPerTile+plane]), a map for the
// dirty set, frames gathered and scattered byte by byte, fields moved one
// bit per call. They exist so the differential tests can hold the fast
// paths to the obvious ones; nothing outside _test.go may use them.

func refCRC16(crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

type refBitstream struct {
	layout Layout
	data   []byte
	dirty  map[FrameAddr]bool
}

func newRef(l Layout) *refBitstream {
	return &refBitstream{
		layout: l,
		data:   make([]byte, l.Rows*l.Cols*l.BytesPerTile),
		dirty:  make(map[FrameAddr]bool),
	}
}

func (b *refBitstream) clone() *refBitstream {
	c := newRef(b.layout)
	copy(c.data, b.data)
	for fa := range b.dirty {
		c.dirty[fa] = true
	}
	return c
}

func (b *refBitstream) tileOffset(row, col int) (int, error) {
	if row < 0 || row >= b.layout.Rows || col < 0 || col >= b.layout.Cols {
		return 0, fmt.Errorf("ref: tile (%d,%d) outside array", row, col)
	}
	return (row*b.layout.Cols + col) * b.layout.BytesPerTile, nil
}

func (b *refBitstream) SetBit(row, col, bit int, v bool) error {
	off, err := b.tileOffset(row, col)
	if err != nil {
		return err
	}
	if bit < 0 || bit >= 8*b.layout.BytesPerTile {
		return fmt.Errorf("ref: bit %d outside tile config space", bit)
	}
	idx := off + bit/8
	mask := byte(1) << (bit % 8)
	old := b.data[idx]
	if v {
		b.data[idx] = old | mask
	} else {
		b.data[idx] = old &^ mask
	}
	if b.data[idx] != old {
		b.dirty[FrameAddr{Col: col, Plane: bit / 8}] = true
	}
	return nil
}

func (b *refBitstream) GetBit(row, col, bit int) (bool, error) {
	off, err := b.tileOffset(row, col)
	if err != nil {
		return false, err
	}
	if bit < 0 || bit >= 8*b.layout.BytesPerTile {
		return false, fmt.Errorf("ref: bit %d outside tile config space", bit)
	}
	return b.data[off+bit/8]&(1<<(bit%8)) != 0, nil
}

// SetBits is the per-bit loop. Unlike the package's SetBits it writes the
// in-range prefix of a field before rejecting the rest, so differential
// callers apply it to a clone and keep the clone only on success.
func (b *refBitstream) SetBits(row, col, startBit, width int, v uint64) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("ref: field width %d", width)
	}
	for i := 0; i < width; i++ {
		if err := b.SetBit(row, col, startBit+i, v&(1<<i) != 0); err != nil {
			return err
		}
	}
	return nil
}

func (b *refBitstream) GetBits(row, col, startBit, width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("ref: field width %d", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		bit, err := b.GetBit(row, col, startBit+i)
		if err != nil {
			return 0, err
		}
		if bit {
			v |= 1 << i
		}
	}
	return v, nil
}

func (b *refBitstream) frameIndexOK(fa FrameAddr) error {
	if fa.Col < 0 || fa.Col >= b.layout.Cols || fa.Plane < 0 || fa.Plane >= b.layout.BytesPerTile {
		return fmt.Errorf("ref: frame %+v outside device", fa)
	}
	return nil
}

func (b *refBitstream) Frame(fa FrameAddr) ([]byte, error) {
	if err := b.frameIndexOK(fa); err != nil {
		return nil, err
	}
	out := make([]byte, b.layout.Rows)
	for r := range out {
		out[r] = b.data[(r*b.layout.Cols+fa.Col)*b.layout.BytesPerTile+fa.Plane]
	}
	return out, nil
}

func (b *refBitstream) LoadFrame(fa FrameAddr, frame []byte) error {
	if err := b.frameIndexOK(fa); err != nil {
		return err
	}
	if len(frame) != b.layout.Rows {
		return fmt.Errorf("ref: frame length %d, want %d", len(frame), b.layout.Rows)
	}
	for r := range frame {
		idx := (r*b.layout.Cols+fa.Col)*b.layout.BytesPerTile + fa.Plane
		if b.data[idx] != frame[r] {
			b.data[idx] = frame[r]
			b.dirty[fa] = true
		}
	}
	return nil
}

func (b *refBitstream) DirtyFrames() []FrameAddr {
	out := make([]FrameAddr, 0, len(b.dirty))
	for fa := range b.dirty {
		out = append(out, fa)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Plane < out[j].Plane
	})
	return out
}

func (b *refBitstream) ClearDirty() { b.dirty = make(map[FrameAddr]bool) }

// refStream builds a configuration stream one opcode at a time, CRC'd by
// the reference CRC. The hand-made fuzz seeds and the stream tests use it
// to write streams the package's own writer never emits.
type refStream struct {
	buf []byte
	crc uint16
}

func newRefStream(l Layout) *refStream {
	w := &refStream{}
	for _, v := range []uint32{syncWord, uint32(l.Rows), uint32(l.Cols), uint32(l.BytesPerTile)} {
		w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	}
	return w
}

func (w *refStream) bytes(p ...byte) *refStream {
	w.buf = append(w.buf, p...)
	w.crc = refCRC16(w.crc, p)
	return w
}

func (w *refStream) u32(v uint32) *refStream {
	return w.bytes(binary.BigEndian.AppendUint32(nil, v)...)
}

func (w *refStream) far(col, plane int) *refStream {
	return w.bytes(opWriteFAR).u32(uint32(col)).u32(uint32(plane))
}

func (w *refStream) fdri(data ...byte) *refStream {
	return w.bytes(opWriteFDRI).u32(uint32(len(data))).bytes(data...)
}

func (w *refStream) check() *refStream {
	w.buf = append(w.buf, opCRC)
	w.buf = binary.BigEndian.AppendUint16(w.buf, w.crc)
	w.crc = 0
	return w
}

func (w *refStream) desync() []byte { return append(w.buf, opDesync) }

// config is the old writer: one Frame gather per frame, consecutive planes
// of a column coalesced into one FDRI burst.
func (b *refBitstream) config(frames []FrameAddr) ([]byte, error) {
	w := newRefStream(b.layout)
	for i := 0; i < len(frames); {
		fa := frames[i]
		run := 1
		for i+run < len(frames) && frames[i+run] == (FrameAddr{Col: fa.Col, Plane: fa.Plane + run}) {
			run++
		}
		var data []byte
		for k := 0; k < run; k++ {
			frame, err := b.Frame(FrameAddr{Col: fa.Col, Plane: fa.Plane + k})
			if err != nil {
				return nil, err
			}
			data = append(data, frame...)
		}
		w.far(fa.Col, fa.Plane).fdri(data...)
		i += run
	}
	return w.check().desync(), nil
}

func (b *refBitstream) FullConfig() ([]byte, error) {
	var all []FrameAddr
	for c := 0; c < b.layout.Cols; c++ {
		for p := 0; p < b.layout.BytesPerTile; p++ {
			all = append(all, FrameAddr{Col: c, Plane: p})
		}
	}
	return b.config(all)
}

func (b *refBitstream) PartialConfig() ([]byte, error) { return b.config(b.DirtyFrames()) }

// ApplyConfig is the old parser plus the one behaviour this package's
// parser gained with the rewrite: an FDRI burst advances FAR by the planes
// it wrote.
func (b *refBitstream) ApplyConfig(stream []byte) (int, error) {
	if len(stream) < 16 {
		return 0, fmt.Errorf("ref: stream too short (%d bytes)", len(stream))
	}
	if binary.BigEndian.Uint32(stream[0:4]) != syncWord {
		return 0, fmt.Errorf("ref: missing sync word")
	}
	rows := int(binary.BigEndian.Uint32(stream[4:8]))
	cols := int(binary.BigEndian.Uint32(stream[8:12]))
	bpt := int(binary.BigEndian.Uint32(stream[12:16]))
	if rows != b.layout.Rows || cols != b.layout.Cols || bpt != b.layout.BytesPerTile {
		return 0, fmt.Errorf("ref: stream is for another device")
	}
	pos := 16
	var crc uint16
	written := 0
	far := FrameAddr{Col: -1}
	need := func(n int) error {
		if pos+n > len(stream) {
			return fmt.Errorf("ref: truncated stream at byte %d", pos)
		}
		return nil
	}
	for {
		if err := need(1); err != nil {
			return written, err
		}
		switch op := stream[pos]; op {
		case opWriteFAR:
			if err := need(9); err != nil {
				return written, err
			}
			crc = refCRC16(crc, stream[pos:pos+9])
			far.Col = int(binary.BigEndian.Uint32(stream[pos+1 : pos+5]))
			far.Plane = int(binary.BigEndian.Uint32(stream[pos+5 : pos+9]))
			pos += 9
		case opWriteFDRI:
			if err := need(5); err != nil {
				return written, err
			}
			n := int(binary.BigEndian.Uint32(stream[pos+1 : pos+5]))
			if n%b.layout.Rows != 0 {
				return written, fmt.Errorf("ref: FDRI length %d not a frame multiple", n)
			}
			if err := need(5 + n); err != nil {
				return written, err
			}
			crc = refCRC16(crc, stream[pos:pos+5+n])
			if far.Col < 0 {
				return written, fmt.Errorf("ref: FDRI before FAR")
			}
			data := stream[pos+5 : pos+5+n]
			for k := 0; k*b.layout.Rows < n; k++ {
				fa := FrameAddr{Col: far.Col, Plane: far.Plane + k}
				if err := b.LoadFrame(fa, data[k*b.layout.Rows:(k+1)*b.layout.Rows]); err != nil {
					return written, err
				}
				written++
			}
			far.Plane += n / b.layout.Rows
			pos += 5 + n
		case opCRC:
			if err := need(3); err != nil {
				return written, err
			}
			if got := binary.BigEndian.Uint16(stream[pos+1 : pos+3]); got != crc {
				return written, fmt.Errorf("ref: CRC mismatch: stream %04x, computed %04x", got, crc)
			}
			crc = 0
			pos += 3
		case opDesync:
			return written, nil
		default:
			return written, fmt.Errorf("ref: unknown opcode %#x at byte %d", op, pos)
		}
	}
}

// sameAs reports the first difference between the model and the package's
// Bitstream as seen through the exported API: every frame's bytes and the
// dirty set, in order.
func (b *refBitstream) sameAs(o *Bitstream) error {
	if b.layout != o.Layout() {
		return fmt.Errorf("layout %+v vs %+v", b.layout, o.Layout())
	}
	for c := 0; c < b.layout.Cols; c++ {
		for p := 0; p < b.layout.BytesPerTile; p++ {
			fa := FrameAddr{Col: c, Plane: p}
			want, _ := b.Frame(fa)
			got, err := o.Frame(fa)
			if err != nil || string(got) != string(want) {
				return fmt.Errorf("frame %+v = %x (%v), reference %x", fa, got, err, want)
			}
		}
	}
	want, got := b.DirtyFrames(), o.DirtyFrames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("dirty frames %v, reference %v", got, want)
	}
	if o.DirtyCount() != len(want) {
		return fmt.Errorf("DirtyCount %d, reference %d", o.DirtyCount(), len(want))
	}
	return nil
}
