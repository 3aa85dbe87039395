package bitstream

import (
	"encoding/binary"
	"fmt"
)

// Configuration packet stream. The real Virtex configuration port consumes
// a word stream of sync word, register writes (FAR = frame address, FDRI =
// frame data input), CRC checks and a desync command; we reproduce that
// structure so that full and partial configuration have genuinely different
// costs and so that corrupt streams are rejected, which the RTR experiments
// (B5) measure.
//
// Stream format (all integers big-endian):
//
//	u32 syncWord
//	u32 layout: rows
//	u32 layout: cols
//	u32 layout: bytesPerTile
//	repeated:
//	  u8 opcode
//	  opWriteFAR:  u32 col, u32 plane
//	  opWriteFDRI: u32 length, bytes   (writes at current FAR, which advances one plane per frame)
//	  opCRC:       u16 crc over all bytes since last CRC (or start)
//	  opDesync:    end of stream
const (
	syncWord = 0xAA995566 // Virtex's actual sync word, kept as a nod

	opWriteFAR  = 0x01
	opWriteFDRI = 0x02
	opCRC       = 0x03
	opDesync    = 0x04
)

// crcTable[k][v] is the CRC-16/XMODEM (CCITT polynomial 0x1021, init 0) of
// byte v followed by k zero bytes — the slicing-by-8 tables.
var crcTable = func() (t [8][256]uint16) {
	for v := range t[0] {
		crc := uint16(v) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][v] = crc
	}
	for k := 1; k < 8; k++ {
		for v, crc := range t[k-1] {
			t[k][v] = crc<<8 ^ t[0][crc>>8]
		}
	}
	return t
}()

// crc16 continues a CRC-16/XMODEM over data, eight bytes per step: the
// running crc folds into the first two bytes, and each byte's contribution
// to the state eight bytes on is one table read.
func crc16(crc uint16, data []byte) uint16 {
	for ; len(data) >= 8; data = data[8:] {
		crc = crcTable[7][data[0]^byte(crc>>8)] ^ crcTable[6][data[1]^byte(crc)] ^
			crcTable[5][data[2]] ^ crcTable[4][data[3]] ^
			crcTable[3][data[4]] ^ crcTable[2][data[5]] ^
			crcTable[1][data[6]] ^ crcTable[0][data[7]]
	}
	for _, v := range data {
		crc = crc<<8 ^ crcTable[0][byte(crc>>8)^v]
	}
	return crc
}

// streamWriter appends a configuration stream onto buf, keeping the
// running CRC of everything since the last CRC opcode.
type streamWriter struct {
	buf []byte
	crc uint16
}

// header seeds a stream writer appending onto dst (which may carry
// reusable capacity from a pooled buffer). The header is not CRC'd.
func (b *Bitstream) header(dst []byte) streamWriter {
	for _, v := range [...]uint32{syncWord, uint32(b.layout.Rows), uint32(b.layout.Cols), uint32(b.layout.BytesPerTile)} {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return streamWriter{buf: dst}
}

// emitRun emits frames [f, f+n) — consecutive planes of one column — as a FAR
// write and a single FDRI burst, as the real device auto-increments the
// frame address. In frame-major storage the burst's payload is one
// contiguous slice.
func (b *Bitstream) emitRun(w *streamWriter, f, n int) {
	start, fa := len(w.buf), b.frameAddr(f)
	w.buf = append(w.buf, opWriteFAR)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(fa.Col))
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(fa.Plane))
	w.buf = append(w.buf, opWriteFDRI)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(n*b.layout.Rows))
	w.buf = append(w.buf, b.data[f*b.layout.Rows:(f+n)*b.layout.Rows]...)
	w.crc = crc16(w.crc, w.buf[start:])
}

// finish closes the stream with its CRC check and the desync command.
func (w *streamWriter) finish() []byte {
	w.buf = append(w.buf, opCRC)
	w.buf = binary.BigEndian.AppendUint16(w.buf, w.crc)
	return append(w.buf, opDesync)
}

// FullConfig serializes every frame into a configuration stream.
func (b *Bitstream) FullConfig() ([]byte, error) {
	bpt := b.layout.BytesPerTile
	w := b.header(make([]byte, 0, 16+b.layout.Cols*(14+bpt*b.layout.Rows)+4))
	for c := 0; c < b.layout.Cols; c++ {
		b.emitRun(&w, c*bpt, bpt)
	}
	return w.finish(), nil
}

// PartialConfig serializes only the dirty frames ("partial bitstream").
// The dirty set is not cleared; call ClearDirty once the stream has been
// applied to its target.
func (b *Bitstream) PartialConfig() ([]byte, error) {
	return b.AppendPartialConfig(nil)
}

// AppendPartialConfig serializes the dirty frames onto dst, reusing its
// capacity — the allocation-free variant of PartialConfig for pooled
// buffers on the server hot path. The dirty set is not cleared.
func (b *Bitstream) AppendPartialConfig(dst []byte) ([]byte, error) {
	w := b.header(dst)
	bpt := b.layout.BytesPerTile
	for f, n := b.nextDirty(0), 0; f >= 0; f = b.nextDirty(f + n) {
		// A run is the dirty frames that follow f in its column.
		for n = 1; (f+n)%bpt != 0 && b.isDirty(f+n); n++ {
		}
		b.emitRun(&w, f, n)
	}
	return w.finish(), nil
}

// ConfigFor serializes an explicit frame set.
func (b *Bitstream) ConfigFor(frames []FrameAddr) ([]byte, error) {
	w := b.header(nil)
	for i := 0; i < len(frames); {
		f, err := b.frameIndex(frames[i])
		if err != nil {
			return nil, err
		}
		// Coalesce consecutive planes of the column. A plane past the
		// column's last never joins a run: it starts its own and is
		// rejected there.
		first, n := frames[i], 1
		for i+n < len(frames) && first.Plane+n < b.layout.BytesPerTile &&
			frames[i+n] == (FrameAddr{Col: first.Col, Plane: first.Plane + n}) {
			n++
		}
		b.emitRun(&w, f, n)
		i += n
	}
	return w.finish(), nil
}

// ApplyConfig parses a configuration stream and writes its frames into b,
// verifying the layout and CRC. It returns the number of frames written.
// Like real hardware, frames are written as they stream in, so a CRC error
// aborts configuration mid-way with an error; callers should then treat the
// device as corrupt and reconfigure fully.
func (b *Bitstream) ApplyConfig(stream []byte) (int, error) {
	if len(stream) < 16 {
		return 0, fmt.Errorf("bitstream: stream too short (%d bytes)", len(stream))
	}
	if binary.BigEndian.Uint32(stream[0:4]) != syncWord {
		return 0, fmt.Errorf("bitstream: missing sync word")
	}
	rows := int(binary.BigEndian.Uint32(stream[4:8]))
	cols := int(binary.BigEndian.Uint32(stream[8:12]))
	bpt := int(binary.BigEndian.Uint32(stream[12:16]))
	if rows != b.layout.Rows || cols != b.layout.Cols || bpt != b.layout.BytesPerTile {
		return 0, fmt.Errorf("bitstream: stream is for a %dx%dx%d device, this is %dx%dx%d",
			rows, cols, bpt, b.layout.Rows, b.layout.Cols, b.layout.BytesPerTile)
	}
	pos := 16
	var crc uint16
	written := 0
	far := FrameAddr{Col: -1}
	need := func(n int) error {
		if pos+n > len(stream) {
			return fmt.Errorf("bitstream: truncated stream at byte %d", pos)
		}
		return nil
	}
	for {
		if err := need(1); err != nil {
			return written, err
		}
		op := stream[pos]
		switch op {
		case opWriteFAR:
			if err := need(9); err != nil {
				return written, err
			}
			crc = crc16(crc, stream[pos:pos+9])
			far.Col = int(binary.BigEndian.Uint32(stream[pos+1 : pos+5]))
			far.Plane = int(binary.BigEndian.Uint32(stream[pos+5 : pos+9]))
			pos += 9
		case opWriteFDRI:
			if err := need(5); err != nil {
				return written, err
			}
			n := int(binary.BigEndian.Uint32(stream[pos+1 : pos+5]))
			if n%b.layout.Rows != 0 {
				return written, fmt.Errorf("bitstream: FDRI length %d not a frame multiple", n)
			}
			if err := need(5 + n); err != nil {
				return written, err
			}
			crc = crc16(crc, stream[pos:pos+5+n])
			if far.Col < 0 {
				return written, fmt.Errorf("bitstream: FDRI before FAR")
			}
			// Each frame is bounds-checked on its own: in frame-major
			// storage the bytes after a column's last plane are the next
			// column's plane 0, so a burst must not be copied as one run.
			for data := stream[pos+5 : pos+5+n]; len(data) > 0; data = data[b.layout.Rows:] {
				if err := b.LoadFrame(far, data[:b.layout.Rows]); err != nil {
					return written, err
				}
				far.Plane++
				written++
			}
			pos += 5 + n
		case opCRC:
			if err := need(3); err != nil {
				return written, err
			}
			got := binary.BigEndian.Uint16(stream[pos+1 : pos+3])
			if got != crc {
				return written, fmt.Errorf("bitstream: CRC mismatch: stream %04x, computed %04x", got, crc)
			}
			crc = 0
			pos += 3
		case opDesync:
			return written, nil
		default:
			return written, fmt.Errorf("bitstream: unknown opcode %#x at byte %d", op, pos)
		}
	}
}
