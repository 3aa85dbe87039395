package jbits

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// XHWIF-style remote board access. JBits talks to hardware through the
// XHWIF portability layer, which in deployments of the era frequently ran
// over a network socket to the machine hosting the board. This file
// reproduces that shape: Serve speaks a framed request/response protocol
// over any io.ReadWriter on behalf of a Board, and RemoteBoard is the
// client side, exposing Configure and readback to a JRoute session running
// elsewhere.
//
// Frame format (big-endian): u8 opcode, u32 payload length, payload.
// Responses echo the opcode with the high bit set; error responses use
// opError with a string payload. The routing service (internal/server)
// speaks its own binary v3 framing; the only frame of this shape it writes
// is a byte literal, its refusal of a legacy framed-JSON hello.
const (
	opConfigure   = 0x01 // payload: full configuration stream
	opReadback    = 0x02 // payload: empty; response: full config stream
	opStats       = 0x03 // payload: empty; response: 5x u64 counters
	opClose       = 0x04 // payload: empty; server stops serving
	opPartial     = 0x05 // payload: partial dirty-frame stream
	opError       = 0x7F
	respFlag      = 0x80
	maxFramePayld = 64 << 20
	// linkBuf is what each end of a link reads through: a frame up to
	// this size, header and payload, costs one read of the transport.
	linkBuf = 16 << 10
)

// RespFlag is the response bit of the shared XHWIF frame format: responses
// echo the request opcode with this bit set.
const RespFlag = respFlag

// ErrShortFrame is the sentinel matched (via errors.Is) by every frame
// read that got fewer bytes than the wire format promised — a peer dying
// mid-frame, a fault-injected truncation, a half-flushed buffer. Transport
// consumers must treat it as a hard protocol error, never as a clean
// close; only a zero-byte read between frames reports plain io.EOF.
var ErrShortFrame = errors.New("jbits: short frame")

// ShortFrameError carries the detail of one truncated frame read.
type ShortFrameError struct {
	Part  string // "header" or "payload"
	Got   int    // bytes actually read
	Want  int    // bytes the wire format promised
	Cause error  // underlying read error
}

// Error renders the truncation.
func (e *ShortFrameError) Error() string {
	return fmt.Sprintf("jbits: short frame: %s truncated at %d of %d bytes: %v",
		e.Part, e.Got, e.Want, e.Cause)
}

// Is matches the ErrShortFrame sentinel.
func (e *ShortFrameError) Is(target error) bool { return target == ErrShortFrame }

// Unwrap exposes the underlying transport error.
func (e *ShortFrameError) Unwrap() error { return e.Cause }

// WriteFrame writes one frame of the shared XHWIF wire format: u8 opcode,
// u32 big-endian payload length, payload — in one Write, which is never
// empty (zero-length writes block on rendezvous transports like net.Pipe).
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	buf := append(FrameBuf(0), op, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	RecycleFrame(buf)
	return err
}

// framePool is the one pool of frame buffers on the service path. A buffer
// is taken with FrameBuf — by ReadFrame for a frame's payload, by a worker
// for a response's dirty frames, by a client for a response payload — and
// handed back with RecycleFrame by whichever tier consumes it last, so a
// buffer taken on one tier may return from another. A buffer that escapes
// into long-lived state simply never returns. Buffers travel in *[]byte
// boxes that frameBoxes recycles, so a put allocates none.
var (
	framePool  sync.Pool
	frameBoxes = sync.Pool{New: func() any { return new([]byte) }}
)

// FrameBuf takes a pooled buffer of length n, falling back to a fresh
// allocation when the pool is empty or its buffer too small.
func FrameBuf(n int) []byte {
	if p, _ := framePool.Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		frameBoxes.Put(p)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// RecycleFrame returns a buffer obtained from FrameBuf (or ReadFrame) to
// the pool. The caller must not touch the slice afterwards — the next
// FrameBuf on any goroutine may reuse it. Recycling a nil or foreign slice
// is harmless.
func RecycleFrame(payload []byte) {
	if cap(payload) == 0 {
		return
	}
	p := frameBoxes.Get().(*[]byte)
	*p = payload[:0]
	framePool.Put(p)
}

// ReadFrame reads one frame of the shared XHWIF wire format, rejecting
// payloads over the 64 MiB frame limit. A non-empty payload comes from the
// frame pool: callers that are done with it before their next read should
// return it with RecycleFrame; callers that retain it just keep it. An
// empty payload is nil. Its header costs an allocation; the serve loop and
// RemoteBoard read through readFrame, from a buffered reader, with a header
// scratch they keep.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	return readFrame(r, new([5]byte))
}

// readFrame is ReadFrame into the caller's reusable header scratch.
func readFrame(r io.Reader, hdr *[5]byte) (op byte, payload []byte, err error) {
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		// A clean close between frames (zero bytes read) stays a plain
		// io.EOF so serve loops can distinguish it; anything else — the
		// peer died mid-header — is a short frame and must say so
		// instead of being silently accepted as end-of-stream.
		if n == 0 && err == io.EOF {
			return 0, nil, err
		}
		return 0, nil, &ShortFrameError{Part: "header", Got: n, Want: len(hdr), Cause: err}
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayld {
		return 0, nil, fmt.Errorf("jbits: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload = FrameBuf(int(n))
	if got, err := io.ReadFull(r, payload); err != nil {
		// The header promised n payload bytes; any failure here means a
		// truncated frame, never a clean close. The partially filled
		// buffer never escapes — it goes straight back to the pool.
		RecycleFrame(payload)
		return 0, nil, &ShortFrameError{Part: "payload", Got: got, Want: int(n), Cause: err}
	}
	return hdr[0], payload, nil
}

// Serve handles XHWIF requests for a board until the peer sends opClose or
// the transport fails. It is the board-host side of the wire. Several Serve
// loops may share one Board concurrently (one per connection); the board
// serializes configuration-port access internally.
func Serve(conn io.ReadWriter, b *Board) error {
	var hdr [5]byte
	r := bufio.NewReaderSize(conn, linkBuf)
	for {
		op, payload, err := readFrame(r, &hdr)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		// The board copies everything it keeps (ApplyFramesRaw loads frame
		// data into its own storage), so the payload buffer can go back to
		// the pool as soon as the frame is handled.
		done, err := serveFrame(conn, b, op, payload)
		RecycleFrame(payload)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// serveFrame handles one XHWIF frame; done reports a clean opClose.
func serveFrame(conn io.ReadWriter, b *Board, op byte, payload []byte) (done bool, err error) {
	switch op {
	case opConfigure, opPartial:
		cfg := b.Configure
		if op == opPartial {
			cfg = b.ConfigurePartial
		}
		if err := cfg(payload); err != nil {
			return false, WriteFrame(conn, opError|respFlag, []byte(err.Error()))
		}
		return false, WriteFrame(conn, op|respFlag, nil)
	case opReadback:
		stream, err := b.Readback()
		if err != nil {
			return false, WriteFrame(conn, opError|respFlag, []byte(err.Error()))
		}
		return false, WriteFrame(conn, opReadback|respFlag, stream)
	case opStats:
		c := b.Counters()
		var buf [40]byte
		binary.BigEndian.PutUint64(buf[0:], uint64(c.Configurations))
		binary.BigEndian.PutUint64(buf[8:], uint64(c.FramesWritten))
		binary.BigEndian.PutUint64(buf[16:], uint64(c.BytesWritten))
		binary.BigEndian.PutUint64(buf[24:], uint64(c.FullConfigs))
		binary.BigEndian.PutUint64(buf[32:], uint64(c.PartialConfigs))
		return false, WriteFrame(conn, opStats|respFlag, buf[:])
	case opClose:
		_ = WriteFrame(conn, opClose|respFlag, nil)
		return true, nil
	default:
		return false, WriteFrame(conn, opError|respFlag, []byte(fmt.Sprintf("unknown opcode %#x", op)))
	}
}

// RemoteBoard is the client side of the XHWIF wire: it satisfies the same
// Configure-and-readback role as a local Board, over any transport.
type RemoteBoard struct {
	conn io.ReadWriter
	r    *bufio.Reader // conn's read side
	hdr  [5]byte       // readFrame's header scratch
}

// Dial wraps a connected transport as a remote board.
func Dial(conn io.ReadWriter) *RemoteBoard {
	return &RemoteBoard{conn: conn, r: bufio.NewReaderSize(conn, linkBuf)}
}

func (rb *RemoteBoard) call(op byte, payload []byte) ([]byte, error) {
	if err := WriteFrame(rb.conn, op, payload); err != nil {
		return nil, err
	}
	rop, rp, err := readFrame(rb.r, &rb.hdr)
	if err != nil {
		return nil, err
	}
	if rop == opError|respFlag {
		return nil, fmt.Errorf("jbits: remote board: %s", rp)
	}
	if rop != op|respFlag {
		return nil, fmt.Errorf("jbits: protocol confusion: sent %#x, got %#x", op, rop)
	}
	return rp, nil
}

// Configure ships a full configuration stream to the remote board.
func (rb *RemoteBoard) Configure(stream []byte) error {
	_, err := rb.call(opConfigure, stream)
	return err
}

// ConfigurePartial ships a partial dirty-frame stream to the remote board
// under opPartial, so partial reconfigurations are distinguishable from
// full configures on the wire.
func (rb *RemoteBoard) ConfigurePartial(stream []byte) error {
	_, err := rb.call(opPartial, stream)
	return err
}

// Readback retrieves the remote board's full configuration stream.
func (rb *RemoteBoard) Readback() ([]byte, error) {
	return rb.call(opReadback, nil)
}

// Stats returns the remote board's configuration counters.
func (rb *RemoteBoard) Stats() (BoardCounters, error) {
	p, err := rb.call(opStats, nil)
	if err != nil {
		return BoardCounters{}, err
	}
	if len(p) != 40 {
		return BoardCounters{}, fmt.Errorf("jbits: bad stats payload length %d", len(p))
	}
	return BoardCounters{
		Configurations: int(binary.BigEndian.Uint64(p[0:])),
		FramesWritten:  int(binary.BigEndian.Uint64(p[8:])),
		BytesWritten:   int(binary.BigEndian.Uint64(p[16:])),
		FullConfigs:    int(binary.BigEndian.Uint64(p[24:])),
		PartialConfigs: int(binary.BigEndian.Uint64(p[32:])),
	}, nil
}

// Close asks the server to stop serving.
func (rb *RemoteBoard) Close() error {
	_, err := rb.call(opClose, nil)
	return err
}
