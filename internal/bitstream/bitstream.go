// Package bitstream models the configuration memory of the device: a
// frame-addressed bit store with a Virtex-style column-major frame
// organization, a configuration packet stream with CRC protection, readback,
// and partial-bitstream generation from dirty-frame tracking.
//
// JRoute's run-time reconfiguration story rests on JBits being able to read
// and write individual configuration bits and to ship only the changed
// frames to the device; this package supplies those semantics. The actual
// bit positions are this model's own (Xilinx's are proprietary), which is
// irrelevant to the API behaviour being reproduced.
//
// A frame is what the configuration port moves, so storage is frame-major
// (a frame is one contiguous run of Rows bytes, and consecutive planes of a
// column are adjacent), the dirty set is one bit per frame plus a count,
// and the stream CRC is computed eight bytes at a time: serializing,
// applying and comparing frames are copies and compares of whole frames,
// never per-byte gathers.
package bitstream

import (
	"bytes"
	"fmt"
	"math/bits"
)

// Layout fixes the geometry of the configuration memory: the CLB array size
// and the number of configuration bytes per tile. Like Virtex, frames are
// column-major: one frame holds one byte plane of one column, so writing a
// tile dirties at most BytesPerTile frames of its column.
type Layout struct {
	Rows, Cols   int
	BytesPerTile int
}

// Validate checks the layout invariants.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.Cols <= 0 || l.BytesPerTile <= 0 {
		return fmt.Errorf("bitstream: invalid layout %+v", l)
	}
	return nil
}

// FrameAddr identifies one configuration frame: byte plane `Plane` of
// column `Col`. A frame holds Rows bytes.
type FrameAddr struct {
	Col, Plane int
}

// Bitstream is the configuration memory of one device.
type Bitstream struct {
	layout Layout
	// data is frame-major: frame f = col*BytesPerTile+plane occupies
	// data[f*Rows : (f+1)*Rows], row 0 first.
	data []byte
	// dirty holds one bit per frame, indexed like data; nDirty counts the
	// set bits.
	dirty  []uint64
	nDirty int
}

// New allocates an all-zero configuration memory.
func New(l Layout) (*Bitstream, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Bitstream{
		layout: l,
		data:   make([]byte, l.Rows*l.Cols*l.BytesPerTile),
		dirty:  make([]uint64, (l.Cols*l.BytesPerTile+63)/64),
	}, nil
}

// Layout returns the geometry.
func (b *Bitstream) Layout() Layout { return b.layout }

// FrameCount returns the total number of frames.
func (b *Bitstream) FrameCount() int { return b.layout.Cols * b.layout.BytesPerTile }

// bitsOK checks that bits [startBit, startBit+width) of tile (row, col)
// exist; width is at least 1.
func (b *Bitstream) bitsOK(row, col, startBit, width int) error {
	if row < 0 || row >= b.layout.Rows || col < 0 || col >= b.layout.Cols {
		return fmt.Errorf("bitstream: tile (%d,%d) outside %dx%d array",
			row, col, b.layout.Rows, b.layout.Cols)
	}
	if startBit < 0 || startBit > 8*b.layout.BytesPerTile-width {
		return fmt.Errorf("bitstream: bits [%d,%d) outside tile config space (%d bits)",
			startBit, startBit+width, 8*b.layout.BytesPerTile)
	}
	return nil
}

// frame returns frame f's bytes in place.
func (b *Bitstream) frame(f int) []byte {
	return b.data[f*b.layout.Rows : (f+1)*b.layout.Rows]
}

func (b *Bitstream) markDirty(f int) {
	if m := uint64(1) << (f & 63); b.dirty[f>>6]&m == 0 {
		b.dirty[f>>6] |= m
		b.nDirty++
	}
}

func (b *Bitstream) isDirty(f int) bool { return b.dirty[f>>6]>>(f&63)&1 != 0 }

// nextDirty returns the first dirty frame at or after from, or -1.
func (b *Bitstream) nextDirty(from int) int {
	w := from >> 6
	if w >= len(b.dirty) {
		return -1
	}
	word := b.dirty[w] >> (from & 63) << (from & 63)
	for word == 0 {
		if w++; w == len(b.dirty) {
			return -1
		}
		word = b.dirty[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// SetBit sets one configuration bit of a tile. bit indexes the tile's
// configuration space [0, 8*BytesPerTile).
func (b *Bitstream) SetBit(row, col, bit int, v bool) error {
	if err := b.bitsOK(row, col, bit, 1); err != nil {
		return err
	}
	f := col*b.layout.BytesPerTile + bit>>3
	idx := f*b.layout.Rows + row
	mask := byte(1) << (bit & 7)
	old := b.data[idx]
	if v {
		b.data[idx] = old | mask
	} else {
		b.data[idx] = old &^ mask
	}
	if b.data[idx] != old {
		b.markDirty(f)
	}
	return nil
}

// GetBit reads one configuration bit of a tile.
func (b *Bitstream) GetBit(row, col, bit int) (bool, error) {
	if err := b.bitsOK(row, col, bit, 1); err != nil {
		return false, err
	}
	return b.data[(col*b.layout.BytesPerTile+bit>>3)*b.layout.Rows+row]&(1<<(bit&7)) != 0, nil
}

// fieldOK validates a SetBits/GetBits field; an empty field touches no
// tile and is always in range.
func (b *Bitstream) fieldOK(row, col, startBit, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("bitstream: field width %d", width)
	}
	if width == 0 {
		return nil
	}
	return b.bitsOK(row, col, startBit, width)
}

// SetBits writes a little-endian field of up to 64 bits starting at
// startBit of the tile's configuration space (used for LUT truth tables).
// A field that does not fit the tile is rejected before anything is written.
func (b *Bitstream) SetBits(row, col, startBit, width int, v uint64) error {
	if err := b.fieldOK(row, col, startBit, width); err != nil {
		return err
	}
	mask := ^uint64(0) >> (64 - width)
	// The field's bytes live one per plane, Rows apart; bit walks to the
	// first field bit of each.
	for bit := startBit; bit < startBit+width; bit = (bit | 7) + 1 {
		f := col*b.layout.BytesPerTile + bit>>3
		idx := f*b.layout.Rows + row
		off := bit - startBit
		m, nv := byte(mask>>off)<<(bit&7), byte(v>>off)<<(bit&7)
		if old := b.data[idx]; old&m != nv&m {
			b.data[idx] = old&^m | nv&m
			b.markDirty(f)
		}
	}
	return nil
}

// GetBits reads a little-endian field of up to 64 bits.
func (b *Bitstream) GetBits(row, col, startBit, width int) (uint64, error) {
	if err := b.fieldOK(row, col, startBit, width); err != nil {
		return 0, err
	}
	var v uint64
	for bit := startBit; bit < startBit+width; bit = (bit | 7) + 1 {
		byt := b.data[(col*b.layout.BytesPerTile+bit>>3)*b.layout.Rows+row]
		v |= uint64(byt>>(bit&7)) << (bit - startBit)
	}
	return v & (^uint64(0) >> (64 - width)), nil
}

// frameIndex returns fa's position in frame-major storage.
func (b *Bitstream) frameIndex(fa FrameAddr) (int, error) {
	if fa.Col < 0 || fa.Col >= b.layout.Cols || fa.Plane < 0 || fa.Plane >= b.layout.BytesPerTile {
		return 0, fmt.Errorf("bitstream: frame %+v outside device", fa)
	}
	return fa.Col*b.layout.BytesPerTile + fa.Plane, nil
}

func (b *Bitstream) frameAddr(f int) FrameAddr {
	return FrameAddr{Col: f / b.layout.BytesPerTile, Plane: f % b.layout.BytesPerTile}
}

// Frame returns a copy of one frame's bytes (row 0 first). This is also the
// readback operation: BoardScope-style tools read device state this way.
func (b *Bitstream) Frame(fa FrameAddr) ([]byte, error) {
	f, err := b.frameIndex(fa)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b.frame(f)), nil
}

// LoadFrame overwrites one frame. The frame is marked dirty only if its
// contents changed.
func (b *Bitstream) LoadFrame(fa FrameAddr, frame []byte) error {
	f, err := b.frameIndex(fa)
	if err != nil {
		return err
	}
	if len(frame) != b.layout.Rows {
		return fmt.Errorf("bitstream: frame length %d, want %d", len(frame), b.layout.Rows)
	}
	if cur := b.frame(f); !bytes.Equal(cur, frame) {
		copy(cur, frame)
		b.markDirty(f)
	}
	return nil
}

// DirtyFrames returns the addresses of frames modified since the last
// ClearDirty, in deterministic (column, plane) order.
func (b *Bitstream) DirtyFrames() []FrameAddr {
	out := make([]FrameAddr, 0, b.nDirty)
	for f := b.nextDirty(0); f >= 0; f = b.nextDirty(f + 1) {
		out = append(out, b.frameAddr(f))
	}
	return out
}

// DirtyCount returns len(DirtyFrames()) without building the list.
func (b *Bitstream) DirtyCount() int { return b.nDirty }

// ClearDirty forgets the dirty set (after a partial bitstream has been
// generated and shipped).
func (b *Bitstream) ClearDirty() {
	clear(b.dirty)
	b.nDirty = 0
}

// Clone returns a deep copy with an empty dirty set (a "golden" snapshot).
func (b *Bitstream) Clone() *Bitstream {
	return &Bitstream{layout: b.layout, data: bytes.Clone(b.data), dirty: make([]uint64, len(b.dirty))}
}

// Equal reports whether two bitstreams have identical layout and contents.
func (b *Bitstream) Equal(o *Bitstream) bool {
	return b.layout == o.layout && bytes.Equal(b.data, o.data)
}

// DiffFrames returns the frames in which b and o differ.
func (b *Bitstream) DiffFrames(o *Bitstream) ([]FrameAddr, error) {
	if b.layout != o.layout {
		return nil, fmt.Errorf("bitstream: layout mismatch %+v vs %+v", b.layout, o.layout)
	}
	var out []FrameAddr
	for f := 0; f < b.FrameCount(); f++ {
		if !bytes.Equal(b.frame(f), o.frame(f)) {
			out = append(out, b.frameAddr(f))
		}
	}
	return out, nil
}
