// Package v3 is the binary framing of the jrouted service protocol — what
// every connection speaks from its first byte, the hello included: a fixed
// little-endian header plus varint-encoded op records, so the wire path
// moves configuration frames as raw bytes with no intermediate marshal.
//
// # Frame layout
//
// Every message is a fixed 20-byte header followed by Len payload bytes:
//
//	offset  size  field
//	0       4     magic "JRv3" (4A 52 76 33)
//	4       1     version (3)
//	5       1     op byte (protocol.Op* constants)
//	6       2     flags, little-endian (FlagResp on responses)
//	8       8     request id, little-endian
//	16      4     payload length, little-endian (<= MaxPayload)
//
// Integers inside payloads are unsigned varints (binary.Uvarint); signed
// fields use zigzag. Strings and blobs are a uvarint length followed by
// the bytes. An error code travels as one byte, its protocol.Code. Every
// op record pins its layout in the ABI golden tests — a byte shift there
// is a wire break and must bump the version byte, the protocol's one
// version number.
//
// # Zero-copy convention
//
// Each response carries at most one large blob (config stream, dirty
// frames, statsz JSON) and the blob is always the final field. Encoders
// therefore return the blob separately from the encoded head; WriteMsg
// sends a message under BufSize as one copied Write and a larger one as one
// vectored write that never copies the blob. Decoders return blobs aliasing
// the read buffer, which the caller owns and recycles. The one exception is
// the tier hop: a mutating response with a record delta (FlagDelta,
// delta.go) has the delta after its frames and is encoded whole.
package v3

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"

	"repro/internal/server/protocol"
)

// Frame constants.
const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20
	// Magic opens every v3 frame.
	Magic = "JRv3"
	// Version is the wire version byte carried in every header: the
	// protocol's version.
	Version = 3
	// MaxPayload bounds a frame payload, matching the XHWIF frame limit.
	MaxPayload = 64 << 20
	// FlagResp marks a response frame.
	FlagResp uint16 = 1 << 0
	// FlagDelta marks a response that carries a record delta as its trailing
	// section (see Response.Delta): only a connection whose hello asked for
	// deltas gets one.
	FlagDelta uint16 = 1 << 1
)

// Endpoint tags.
const (
	epPin  byte = 0x01
	epPort byte = 0x02
)

// OpByte returns the wire byte for a protocol op name.
func OpByte(name string) (byte, bool) {
	if op := protocol.OpByName(name); op != nil {
		return op.Byte, true
	}
	return 0, false
}

// Header is a parsed frame header.
type Header struct {
	Op    byte
	Flags uint16
	ID    uint64
	Len   uint32
}

// FilterError is the pre-parse rejection: the fixed header failed the
// magic/version/length checks, so the frame was refused before any payload
// allocation or dispatch. Code is what the wire answers it with:
// protocol.CodeVersion for a frame of this magic and another version byte,
// protocol.CodeMalformed for every other failure.
type FilterError struct {
	Reason string
	Code   protocol.Code
}

func (e *FilterError) Error() string { return "v3: malformed frame: " + e.Reason }

// PutHeader encodes h into dst, which must hold HeaderSize bytes.
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	copy(dst, Magic)
	dst[4] = Version
	dst[5] = h.Op
	binary.LittleEndian.PutUint16(dst[6:], h.Flags)
	binary.LittleEndian.PutUint64(dst[8:], h.ID)
	binary.LittleEndian.PutUint32(dst[16:], h.Len)
}

// ParseHeader is the pre-parse garbage filter: it validates magic, version
// and length bounds on the fixed header before the caller allocates a
// payload buffer or dispatches anything. b must hold HeaderSize bytes.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, &FilterError{Reason: fmt.Sprintf("header is %d bytes, need %d", len(b), HeaderSize),
			Code: protocol.CodeMalformed}
	}
	if string(b[:4]) != Magic {
		return Header{}, &FilterError{Reason: fmt.Sprintf("bad magic %x", b[:4]), Code: protocol.CodeMalformed}
	}
	if b[4] != Version {
		return Header{}, &FilterError{Reason: fmt.Sprintf("version %d, want %d", b[4], Version),
			Code: protocol.CodeVersion}
	}
	h := Header{
		Op:    b[5],
		Flags: binary.LittleEndian.Uint16(b[6:]),
		ID:    binary.LittleEndian.Uint64(b[8:]),
		Len:   binary.LittleEndian.Uint32(b[16:]),
	}
	if h.Len > MaxPayload {
		return Header{}, &FilterError{Reason: fmt.Sprintf("payload of %d bytes exceeds %d limit", h.Len, MaxPayload),
			Code: protocol.CodeMalformed}
	}
	return h, nil
}

// ReadHeader reads and filters one fixed header. A clean close between
// frames (zero bytes read) returns plain io.EOF; a partial header is
// io.ErrUnexpectedEOF. scratch is the caller's reusable header buffer.
func ReadHeader(r io.Reader, scratch *[HeaderSize]byte) (Header, error) {
	if n, err := io.ReadFull(r, scratch[:]); err != nil {
		if n == 0 && err == io.EOF {
			return Header{}, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Header{}, fmt.Errorf("v3: short header (%d of %d bytes): %w", n, HeaderSize, err)
	}
	return ParseHeader(scratch[:])
}

// ReadPayloadInto reads h.Len payload bytes, reusing buf when its capacity
// suffices. A truncated payload is a hard protocol error
// (io.ErrUnexpectedEOF), never a clean close.
func ReadPayloadInto(r io.Reader, h Header, buf []byte) ([]byte, error) {
	n := int(h.Len)
	if n == 0 {
		return buf[:0], nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("v3: short payload (%d of %d bytes): %w", got, n, err)
	}
	return buf, nil
}

// BufSize is a typical message: each connection end reads through a
// buffer of this size, so a header and payload that arrived together cost
// one read, and WriteMsg sends a message up to this size as one Write.
const BufSize = 16 << 10

// WriteScratch is one connection's reusable write state for WriteMsg.
type WriteScratch struct {
	buf   []byte      // a small message, copied whole
	slots [2][]byte   // head and raw of a large one
	bufs  net.Buffers // re-sliced from slots per message: WriteTo consumes it to zero capacity
}

// WriteMsg writes head (a complete header+meta encoding) and the optional
// raw blob tail as one message: one Write on any transport up to BufSize
// bytes, else one vectored write (writev on TCP) that never copies the
// blob. A warm scratch allocates nothing.
func WriteMsg(w io.Writer, s *WriteScratch, head, raw []byte) error {
	if len(raw) == 0 {
		_, err := w.Write(head)
		return err
	}
	if len(head)+len(raw) <= BufSize {
		s.buf = append(append(s.buf[:0], head...), raw...)
		_, err := w.Write(s.buf)
		return err
	}
	s.slots = [2][]byte{head, raw}
	s.bufs = s.slots[:]
	_, err := s.bufs.WriteTo(w)
	s.slots = [2][]byte{} // the blob goes back to its pool; hold no reference
	return err
}

// appendUvarint / appendSvarint are the varint primitives. Signed values
// use zigzag so small negatives stay small.
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendSvarint(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64((int64(v)<<1)^(int64(v)>>63)))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendEndpoint(dst []byte, ep *protocol.EndPointMsg) []byte {
	if ep.IsPort {
		return AppendPortEnd(dst, ep.Port)
	}
	return AppendPinEnd(dst, ep.Pin.Row, ep.Pin.Col, ep.Pin.Wire)
}

// AppendPin appends a bare pin.
func AppendPin(dst []byte, row, col, wire int) []byte {
	return appendUvarint(appendSvarint(appendSvarint(dst, row), col), uint64(wire))
}

// AppendPip appends a PIP.
func AppendPip(dst []byte, row, col, from, to int) []byte {
	return appendUvarint(AppendPin(dst, row, col, from), uint64(to))
}

func appendEndpoints(dst []byte, eps []protocol.EndPointMsg) []byte {
	dst = appendUvarint(dst, uint64(len(eps)))
	for i := range eps {
		dst = appendEndpoint(dst, &eps[i])
	}
	return dst
}

func appendNet(dst []byte, n *protocol.NetMsg) []byte {
	return appendPips(appendEndpoints(appendEndpoint(dst, &n.Source), n.Sinks), n.Pips)
}

func appendPips(dst []byte, pips []protocol.PipMsg) []byte {
	dst = AppendCount(dst, len(pips))
	for _, p := range pips {
		dst = AppendPip(dst, p.Row, p.Col, p.From, p.To)
	}
	return dst
}

func appendCore(dst []byte, c *protocol.CoreMsg) ([]byte, error) {
	if c == nil {
		return dst, fmt.Errorf("v3: missing core description")
	}
	dst = appendString(dst, c.Name)
	dst = appendString(dst, c.Kind)
	dst = appendSvarint(dst, c.Row)
	dst = appendSvarint(dst, c.Col)
	if c.K != nil {
		dst = append(dst, 1)
		dst = appendUvarint(dst, *c.K)
	} else {
		dst = append(dst, 0)
	}
	dst = appendSvarint(dst, c.KBits)
	return appendSvarint(dst, c.Bits), nil
}

// AppendRequest encodes one request frame (header + payload) onto dst and
// returns the extended slice.
func AppendRequest(dst []byte, req *protocol.Request) ([]byte, error) {
	row := req.Row()
	if row == nil {
		return dst, fmt.Errorf("v3: op %q has no row in the op table", req.Op)
	}
	op := row.Byte
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = appendString(dst, req.Session)
	dst = appendUvarint(dst, uint64(req.TimeoutMillis))
	switch op {
	case protocol.OpConnect:
		if req.Key != nil {
			dst = append(dst, 1)
			dst = appendUvarint(dst, *req.Key)
		} else {
			dst = append(dst, 0)
		}
	case protocol.OpHello:
		if req.Hello == nil {
			return dst, fmt.Errorf("v3: missing hello")
		}
		if dst = append(appendString(dst, req.Hello.Token), 0); req.Hello.Delta {
			dst[len(dst)-1] = 1
		}
	case protocol.OpDevices, protocol.OpStatsz, protocol.OpReadback, protocol.OpGwDrain:
	case protocol.OpRoute, protocol.OpUnroute, protocol.OpReverseUnroute, protocol.OpTrace, protocol.OpReverseTrace:
		if req.Source == nil {
			return dst, fmt.Errorf("v3: missing endpoint")
		}
		if dst = appendEndpoint(dst, req.Source); op == protocol.OpRoute {
			dst = appendEndpoints(dst, req.Sinks)
		}
	case protocol.OpBus, protocol.OpBusBatch:
		dst = appendEndpoints(appendEndpoints(dst, req.Sources), req.Sinks)
	case protocol.OpBatch:
		dst = appendUvarint(dst, uint64(len(req.Nets)))
		for i := range req.Nets {
			dst = appendNet(dst, &req.Nets[i])
		}
	case protocol.OpCoreNew, protocol.OpCoreReplace:
		var err error
		if dst, err = appendCore(dst, req.Core); err != nil {
			return dst, err
		}
	case protocol.OpSessionImport: // the form's entries run to the end of the payload
		dst = append(dst, req.Form...)
	}
	n := len(dst) - start - HeaderSize
	if n > MaxPayload {
		return dst, fmt.Errorf("v3: request payload of %d bytes exceeds limit", n)
	}
	PutHeader(dst[start:], Header{Op: op, ID: req.ID, Len: uint32(n)})
	return dst, nil
}

// AppendResponse encodes one response onto dst. It returns the extended
// head (header + meta fields, including the blob length prefix) and the
// raw blob tail separately: the configuration stream, dirty frames or
// statsz JSON are NOT copied into head — write both with WriteMsg for the
// zero-copy path. raw aliases resp's buffers and must be written before
// they are recycled. A mutating response that carries a delta (the tier
// hop) has it as a section after the frames, and is encoded whole into
// head.
func AppendResponse(dst []byte, op byte, resp *protocol.Response) (head, raw []byte, err error) {
	start := len(dst)
	var flags uint16
	dst = append(dst, make([]byte, HeaderSize)...)
	code := resp.ErrorCode
	if code == protocol.CodeOK && (resp.Err != "" || resp.Busy) {
		code = protocol.CodeInternal
		if resp.Busy {
			code = protocol.CodeBusy
		}
	}
	dst = append(dst, byte(code))
	if code != protocol.CodeOK {
		dst = appendString(dst, resp.Err)
	} else {
		dst = appendString(dst, resp.Board)
		dst = appendUvarint(dst, resp.Epoch)
		switch op {
		case protocol.OpConnect:
			dst = appendSvarint(dst, resp.Rows)
			dst = appendSvarint(dst, resp.Cols)
			dst = appendString(dst, resp.Arch)
			dst = appendUvarint(dst, uint64(len(resp.Config)))
			raw = resp.Config
		case protocol.OpReadback:
			dst = appendUvarint(dst, uint64(len(resp.Config)))
			raw = resp.Config
		case protocol.OpHello: // the layouts sorted by family name, so the bytes are pinned
			if resp.Hello == nil {
				return dst, nil, fmt.Errorf("v3: hello answered without layouts")
			}
			names := make([]string, 0, len(resp.Hello.Layouts))
			for name := range resp.Hello.Layouts {
				names = append(names, name)
			}
			slices.Sort(names)
			dst = appendUvarint(dst, uint64(len(names)))
			for _, name := range names {
				dst = appendString(appendString(dst, name), resp.Hello.Layouts[name])
			}
		case protocol.OpDevices, protocol.OpGwDrain:
			dst = appendUvarint(dst, uint64(len(resp.Devices)))
			for _, d := range resp.Devices {
				dst = appendString(dst, d)
			}
		case protocol.OpStatsz:
			blob, merr := json.Marshal(resp.Stats)
			if merr != nil {
				return dst, nil, fmt.Errorf("v3: encoding statsz: %w", merr)
			}
			dst = appendUvarint(dst, uint64(len(blob)))
			raw = blob
		case protocol.OpTrace, protocol.OpReverseTrace:
			if resp.Net != nil {
				dst = appendNet(append(dst, 1), resp.Net)
			} else {
				dst = append(dst, 0)
			}
		default: // mutating ops: dirty-frame push
			dst = appendUvarint(dst, uint64(resp.FrameN))
			dst = appendUvarint(dst, uint64(len(resp.Frames)))
			raw = resp.Frames
			if resp.Delta != nil {
				dst = append(dst, raw...)
				dst = appendUvarint(dst, uint64(len(resp.Delta)))
				dst, raw, flags = append(dst, resp.Delta...), nil, FlagDelta
			}
		}
	}
	n := len(dst) - start - HeaderSize + len(raw)
	if n > MaxPayload {
		return dst, nil, fmt.Errorf("v3: response payload of %d bytes exceeds limit", n)
	}
	PutHeader(dst[start:], Header{Op: op, Flags: FlagResp | flags, ID: resp.ID, Len: uint32(n)})
	return dst, raw, nil
}

// Interner deduplicates the small recurring strings of the hot decode path
// (session, core and group names) so a steady-state connection stops
// allocating for them. Lookup of a []byte key against the map does not
// allocate; only the first sighting of a name copies it.
type Interner struct {
	m map[string]string
}

// NewInterner creates an empty intern table.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

func (in *Interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}

// A Reader is a cursor over one payload, or over a record blob (an Entry's
// Record) to read its fields in the order they were appended. Its first
// failure sticks.
type Reader struct {
	b   []byte
	off int
	err error
	in  *Interner

	eps []protocol.EndPointMsg // the room's unread endpoints (see room)
}

func (d *Reader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("v3: truncated or corrupt %s at offset %d", what, d.off)
	}
}

// Byte reads a byte.
func (d *Reader) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *Reader) svarint() int {
	u := d.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

// count reads a collection length and bounds it by the bytes remaining
// (each element costs at least one byte), so corrupt counts cannot force
// huge allocations.
func (d *Reader) count(what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.fail(what + " count")
		return 0
	}
	return int(n)
}

func (d *Reader) bytes(what string) []byte { return d.take(d.uvarint(), what) }

// take returns the next n bytes, aliasing the payload.
func (d *Reader) take(n uint64, what string) []byte {
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.fail(what)
	}
	if d.err != nil {
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

func (d *Reader) str(what string) string {
	b := d.bytes(what)
	if d.err != nil {
		return ""
	}
	if d.in != nil {
		return d.in.intern(b)
	}
	return string(b)
}

// NewReader reads a record blob.
func NewReader(blob []byte) *Reader { return &Reader{b: blob} }

// Count reads the count a list of a record's fields starts with.
func (d *Reader) Count() int { return d.count("list") }

// End reads an endpoint up to its pin, which Pin then reads, or whole when
// it is a port.
func (d *Reader) End() (ref protocol.PortRefMsg, port bool) {
	switch tag := d.Byte(); tag {
	case epPin:
	case epPort:
		return protocol.PortRefMsg{Core: d.str("core name"), Group: d.str("group name"), Index: d.svarint()}, true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("v3: unknown endpoint tag %#x at offset %d", tag, d.off-1)
		}
	}
	return ref, false
}

// Pin reads a pin; Pip reads a PIP.
func (d *Reader) Pin() (row, col, wire int) { return d.svarint(), d.svarint(), int(d.uvarint()) }

func (d *Reader) Pip() (row, col, from, to int) {
	row, col, from = d.Pin()
	return row, col, from, int(d.uvarint())
}

// Err returns the first failure, or one for bytes left unread.
func (d *Reader) Err() error {
	if d.err == nil && d.off != len(d.b) {
		return fmt.Errorf("v3: %d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// room sets aside one slice for every endpoint of a request: as many as
// the bytes left hold at four bytes, the least an endpoint takes. A
// request keeps its room whole: nothing in it is reused while anyone holds
// the request.
func (d *Reader) room() { d.eps = make([]protocol.EndPointMsg, (len(d.b)-d.off)/4) }

// endpoint reads an endpoint into ep.
func (d *Reader) endpoint(ep *protocol.EndPointMsg) {
	if ep.Port, ep.IsPort = d.End(); !ep.IsPort {
		ep.Pin.Row, ep.Pin.Col, ep.Pin.Wire = d.Pin()
	}
}

// ends reads n endpoints into the room's next n slots, or into a slice of
// their own when no room was set aside (a response's). A count the bytes
// left cannot hold fails before anything is made.
func (d *Reader) ends(n int, what string) []protocol.EndPointMsg {
	if d.err == nil && n > (len(d.b)-d.off)/4 {
		d.fail(what)
	}
	if d.err != nil || n == 0 {
		return nil
	}
	var eps []protocol.EndPointMsg
	if d.eps == nil {
		eps = make([]protocol.EndPointMsg, n)
	} else {
		eps, d.eps = d.eps[:n:n], d.eps[n:]
	}
	for i := range eps {
		d.endpoint(&eps[i])
	}
	return eps
}

func (d *Reader) net(n *protocol.NetMsg) {
	d.endpoint(&n.Source)
	n.Sinks = d.ends(d.count("sinks"), "sinks")
	n.Pips = d.pips()
}

func (d *Reader) pips() []protocol.PipMsg {
	np := d.count("pips")
	if d.err != nil || np == 0 {
		return nil
	}
	pips := make([]protocol.PipMsg, np)
	for i := range pips {
		p := &pips[i]
		p.Row, p.Col, p.From, p.To = d.Pip()
	}
	return pips
}

func (d *Reader) core(c *protocol.CoreMsg) {
	c.Name = d.str("core name")
	c.Kind = d.str("core kind")
	c.Row, c.Col = d.svarint(), d.svarint()
	if d.Byte() != 0 {
		k := d.uvarint()
		c.K = &k
	}
	c.KBits = d.svarint()
	c.Bits = d.svarint()
}

// DecodeRequest decodes a request payload into req. An optional Interner
// deduplicates the recurring name strings. Nothing in req aliases payload
// (a form is copied), so req outlives the read buffer safely.
func DecodeRequest(h Header, payload []byte, req *protocol.Request, in *Interner) error {
	op := protocol.OpByByte(h.Op)
	if op == nil {
		return fmt.Errorf("v3: unknown op byte %#x", h.Op)
	}
	req.ID = h.ID
	req.SetOp(op)
	d := &Reader{b: payload, in: in}
	req.Session = d.str("session")
	req.TimeoutMillis = int64(d.uvarint())
	switch h.Op {
	case protocol.OpConnect:
		if d.Byte() != 0 {
			k := d.uvarint()
			req.Key = &k
		}
	case protocol.OpHello:
		req.Hello = &protocol.HelloMsg{Token: d.str("token"), Delta: d.Byte() != 0}
	case protocol.OpDevices, protocol.OpStatsz, protocol.OpReadback, protocol.OpGwDrain:
	case protocol.OpRoute, protocol.OpUnroute, protocol.OpReverseUnroute, protocol.OpTrace, protocol.OpReverseTrace:
		d.room()
		if src := d.ends(1, "source"); src != nil {
			req.Source = &src[0]
		}
		if h.Op == protocol.OpRoute {
			req.Sinks = d.ends(d.count("sinks"), "sinks")
		}
	case protocol.OpBus, protocol.OpBusBatch:
		d.room()
		req.Sources = d.ends(d.count("sources"), "sources")
		req.Sinks = d.ends(d.count("sinks"), "sinks")
	case protocol.OpBatch:
		n := d.count("nets")
		if n > 0 {
			d.room()
			req.Nets = make([]protocol.NetMsg, n)
			for i := range req.Nets {
				d.net(&req.Nets[i])
			}
		}
	case protocol.OpCoreNew, protocol.OpCoreReplace:
		req.Core = &protocol.CoreMsg{}
		d.core(req.Core)
	case protocol.OpSessionImport: // a copy: the request outlives the read buffer
		req.Form = append([]byte{}, payload[d.off:]...)
		for run := req.Form; d.err == nil && len(run) > 0; {
			var e Entry
			if e, run, d.err = NextEntry(run); d.err == nil && (e.Tag == EntryGone || e.Tag == EntryDrop) {
				d.err = fmt.Errorf("v3: a session form holds no entry of tag %#x", e.Tag)
			}
		}
		d.off = len(payload)
	}
	if d.err == nil && d.off != len(payload) {
		d.err = fmt.Errorf("v3: %d trailing bytes after %s request", len(payload)-d.off, op.Name)
	}
	return d.err
}

// DecodeResponse decodes a response payload into resp. Blob fields
// (Config, Frames) alias payload — the caller must consume them before
// recycling the read buffer.
func DecodeResponse(h Header, payload []byte, resp *protocol.Response) error {
	resp.ID = h.ID
	board := resp.Board // kept, not copied, when the payload names it again
	d := &Reader{b: payload}
	if code := protocol.Code(d.Byte()); code != protocol.CodeOK {
		// Every op's error record is the same, so one for an op byte this
		// side has no row for (the server's CodeUnknownOp answer) decodes.
		// A byte no code has reads as CodeInternal.
		resp.Board, resp.Err = "", d.str("error text")
		if resp.ErrorCode = code; code.String() == "" {
			resp.ErrorCode = protocol.CodeInternal
		}
		resp.Busy = code == protocol.CodeBusy
		return d.err
	}
	if protocol.OpByByte(h.Op) == nil {
		return fmt.Errorf("v3: unknown op byte %#x", h.Op)
	}
	if b := d.bytes("board name"); string(b) != board {
		board = string(b)
	}
	resp.Board, resp.Epoch = board, d.uvarint()
	switch h.Op {
	case protocol.OpConnect:
		resp.Rows, resp.Cols = d.svarint(), d.svarint()
		resp.Arch = d.str("arch name")
		resp.Config = d.bytes("config stream")
	case protocol.OpReadback:
		resp.Config = d.bytes("config stream")
	case protocol.OpHello:
		n := d.count("layouts")
		resp.Hello = &protocol.HelloMsg{Layouts: make(map[string]string, n)}
		for i := 0; i < n && d.err == nil; i++ {
			name := d.str("family name")
			resp.Hello.Layouts[name] = d.str("layout")
		}
	case protocol.OpDevices, protocol.OpGwDrain:
		n := d.count("devices")
		for i := 0; i < n && d.err == nil; i++ {
			resp.Devices = append(resp.Devices, d.str("device name"))
		}
	case protocol.OpStatsz:
		blob := d.bytes("statsz blob")
		if d.err == nil {
			resp.Stats = &protocol.StatsMsg{}
			if err := json.Unmarshal(blob, resp.Stats); err != nil {
				return fmt.Errorf("v3: decoding statsz: %w", err)
			}
		}
	case protocol.OpTrace, protocol.OpReverseTrace:
		if d.Byte() != 0 {
			resp.Net = &protocol.NetMsg{}
			d.net(resp.Net)
		}
	default:
		resp.FrameN = int(d.uvarint())
		resp.Frames = d.bytes("frame stream")
		if h.Flags&FlagDelta != 0 {
			resp.Delta = d.bytes("delta section")
		}
	}
	if d.err == nil && d.off != len(payload) {
		d.err = fmt.Errorf("v3: %d trailing bytes after response", len(payload)-d.off)
	}
	return d.err
}
