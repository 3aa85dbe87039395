// Package client is the Go client for the jrouted routing service: a
// connection multiplexing any number of device sessions, each keeping a
// local mirror of the server's bitstream that is updated exclusively from
// the dirty frames mutating responses push back — the thin-client side of
// the partial-reconfiguration story.
//
// Every RPC takes a context.Context. The context's remaining deadline is
// propagated to the server (bounding the op's wait in the session's bounded
// queue) and also applied to the transport, so a canceled or expired
// context abandons the wire round trip instead of blocking. Server-side
// rejections come back as typed errors: errors.Is(err, ErrCanceled),
// ErrBusy, ErrFailover, ... — see ServiceError.
//
// A connection carries binary v3 frames from its first byte — dirty
// configuration frames travel as raw bytes into pooled read buffers with
// no marshal on the wire path. The first frame is the hello row. A server
// that refuses the hello, answers it outside the v3 framing or with
// another version byte, or lays out PIP bits other than this client does,
// surfaces as ErrVersionMismatch.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// Sentinel errors for the structured codes responses carry. Match with
// errors.Is; the full server message is in the wrapping ServiceError.
var (
	// ErrBusy: backpressure — the session's bounded queue stayed full past
	// the enqueue timeout. Retryable.
	ErrBusy = errors.New("client: server busy (session queue full)")
	// ErrCanceled: the request context was canceled while the op was
	// queued server-side; the op was rejected without executing.
	ErrCanceled = errors.New("client: request canceled")
	// ErrVersionMismatch: the server speaks a different protocol version
	// or PIP bit layout (or refused the hello).
	ErrVersionMismatch = errors.New("client: protocol version mismatch")
	// ErrAdmission: fleet admission control rejected the session.
	ErrAdmission = errors.New("client: session rejected by admission control")
	// ErrBoardDown: the session's board is dead and no spare is left.
	ErrBoardDown = errors.New("client: board down, no spare available")
	// ErrFailover: the op raced a board death; acknowledged state is
	// preserved on the replacement board. Retryable.
	ErrFailover = errors.New("client: board failed over, retry")
	// ErrUnauthorized: the hello bearer token was missing or unknown, or
	// the op targeted another tenant's session (gateway tier).
	ErrUnauthorized = errors.New("client: unauthorized")
	// ErrQuotaExceeded: a tenant quota rejected the request — session cap
	// on connect, ops/s token bucket otherwise. Rate rejections are
	// retryable after a pause.
	ErrQuotaExceeded = errors.New("client: tenant quota exceeded")
	// ErrUnknownAlias: connect named a device-class alias no backend fleet
	// serves (gateway tier).
	ErrUnknownAlias = errors.New("client: unknown device-class alias")
)

// ServiceError is a server-side rejection carrying the structured wire
// code. It unwraps to the matching sentinel (or context.DeadlineExceeded
// for CodeDeadline), so callers branch with errors.Is.
type ServiceError struct {
	Code protocol.Code
	Msg  string // the server's human-readable error text
}

func (e *ServiceError) Error() string {
	if e.Code == protocol.CodeOK {
		return e.Msg
	}
	return fmt.Sprintf("%s (%s)", e.Msg, e.Code)
}

func (e *ServiceError) Unwrap() error {
	switch e.Code {
	case protocol.CodeBusy:
		return ErrBusy
	case protocol.CodeCanceled:
		return ErrCanceled
	case protocol.CodeDeadline:
		return context.DeadlineExceeded
	case protocol.CodeVersion:
		return ErrVersionMismatch
	case protocol.CodeAdmission:
		return ErrAdmission
	case protocol.CodeBoardDown:
		return ErrBoardDown
	case protocol.CodeFailover:
		return ErrFailover
	case protocol.CodeUnauthorized:
		return ErrUnauthorized
	case protocol.CodeQuota:
		return ErrQuotaExceeded
	case protocol.CodeUnknownAlias:
		return ErrUnknownAlias
	}
	return nil
}

// respError converts a response's error fields to a typed error.
func respError(resp *server.Response) error {
	if resp.Busy && resp.ErrorCode == protocol.CodeOK {
		resp.ErrorCode = protocol.CodeBusy
	}
	if resp.Err == "" && !resp.Busy {
		return nil
	}
	msg := resp.Err
	if msg == "" {
		msg = "client: server busy (session queue full)"
	}
	return &ServiceError{Code: resp.ErrorCode, Msg: msg}
}

// Client is one connection to a jrouted daemon. Calls are synchronous
// request/response; the mutex serializes concurrent callers onto the wire.
type Client struct {
	mu      sync.Mutex
	conn    io.ReadWriteCloser
	rd      *bufio.Reader // every read of conn goes through it
	nextID  uint64
	helloed bool

	token string // bearer token sent in hello (gateway tenants)
	delta bool   // the hello asks for record deltas

	hdr   [v3.HeaderSize]byte // reused v3 header scratch
	wbuf  []byte              // reused v3 request-encode buffer
	board string              // the last response's board: a decode that reads it again keeps it
}

// Option configures a Client before its hello.
type Option func(*Client)

// WithToken sets the bearer token the hello presents. Gateways
// resolve it to a tenant; servers without an authenticator ignore it.
func WithToken(tok string) Option { return func(c *Client) { c.token = tok } }

// WithDelta makes the hello ask for the record delta of every acknowledged
// mutating op (Response.Delta): the gateway tier's journal reads them.
func WithDelta() Option { return func(c *Client) { c.delta = true } }

// Dial connects to a daemon and says hello. Canceling ctx abandons the
// hello, as its deadline does.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn, opts...)
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	err = c.Hello(ctx)
	if !stop() && err == nil {
		err = ctx.Err() // canceled as the hello finished: conn is closed
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an already-established transport. Tests use this to
// interpose fault injection (jbits.FaultConn) between the protocol layer
// and the wire. The hello runs lazily before the first call (or eagerly
// via Hello).
func NewClient(conn io.ReadWriteCloser, opts ...Option) *Client {
	c := &Client{conn: conn, rd: bufio.NewReaderSize(conn, v3.BufSize)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Hello says hello explicitly: the connection's first frame.
func (c *Client) Hello(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloLocked(ctx)
}

func (c *Client) helloLocked(ctx context.Context) error {
	if c.helloed {
		return nil
	}
	resp, buf, err := c.roundTrip(ctx, &server.Request{Op: "hello",
		Hello: &protocol.HelloMsg{Token: c.token, Delta: c.delta}})
	jbits.RecycleFrame(buf) // the layouts were copied out
	var fe *v3.FilterError
	if errors.As(err, &fe) {
		return &ServiceError{Code: protocol.CodeVersion,
			Msg: fmt.Sprintf("client: server answered hello outside v3: %v", fe)}
	}
	if err != nil {
		return err
	}
	if err := respError(resp); err != nil {
		return err
	}
	var layouts map[string]string
	if resp.Hello != nil {
		layouts = resp.Hello.Layouts
	}
	if !maps.Equal(layouts, arch.Layouts()) {
		return &ServiceError{Code: protocol.CodeVersion, Msg: fmt.Sprintf(
			"client: server lays out PIP bits as %v, client as %v", layouts, arch.Layouts())}
	}
	c.helloed = true
	return nil
}

// call performs one round trip for ops whose response carries no blob
// (the payload buffer is recycled before the response is returned).
// Responses with Config or Frames must go through callBuf instead.
func (c *Client) call(ctx context.Context, req *server.Request) (*server.Response, error) {
	resp, buf, err := c.callBuf(ctx, req)
	jbits.RecycleFrame(buf)
	return resp, err
}

// callBuf performs one round trip, saying hello first if needed. The
// returned buffer backs the response's blob fields (Config, Frames); the
// caller must consume them and then hand the buffer back to the frame pool
// with jbits.RecycleFrame. On error the buffer is nil.
func (c *Client) callBuf(ctx context.Context, req *server.Request) (*server.Response, []byte, error) {
	resp, buf, err := c.exchange(ctx, req)
	if err == nil {
		err = respError(resp)
	}
	if err != nil {
		jbits.RecycleFrame(buf)
		return nil, nil, err
	}
	return resp, buf, nil
}

// exchange is roundTrip under the lock, after the hello.
func (c *Client) exchange(ctx context.Context, req *server.Request) (*server.Response, []byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.helloLocked(ctx); err != nil {
		return nil, nil, err
	}
	return c.roundTrip(ctx, req)
}

// Forward performs one raw round trip: the request travels as-is (after the
// lazy hello) and the response comes back even when it carries a typed
// error code — the caller inspects ErrorCode itself. Blob fields (Config,
// Frames, Delta) are detached from the transport buffer, so the response
// owns its memory; Frames land in a buffer of the frame pool, which the
// serving connection returns once they are on the wire. This is the gateway
// tier's proxy primitive; transport and encoding failures still return an
// error. Forward stamps req.ID.
func (c *Client) Forward(ctx context.Context, req *server.Request) (*server.Response, error) {
	resp, buf, err := c.exchange(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Config) > 0 {
		resp.Config = append([]byte(nil), resp.Config...)
	}
	if len(resp.Frames) > 0 {
		resp.Frames = append(jbits.FrameBuf(0), resp.Frames...)
	}
	if resp.Delta != nil {
		resp.Delta = append([]byte{}, resp.Delta...)
	}
	jbits.RecycleFrame(buf)
	return resp, nil
}

// stamp gives the request the connection's next id and propagates the
// context deadline: in the request, bounding the server-side queue wait,
// and on the transport when it supports deadlines, so an expired context
// abandons the read instead of blocking forever. Callers hold c.mu.
func (c *Client) stamp(ctx context.Context, req *server.Request) error {
	c.nextID++
	req.ID = c.nextID
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return context.DeadlineExceeded
		}
		req.TimeoutMillis = int64(remaining / time.Millisecond)
		if req.TimeoutMillis == 0 {
			req.TimeoutMillis = 1
		}
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	if dc, ok := c.conn.(deadliner); ok {
		dl, _ := ctx.Deadline()
		_ = dc.SetDeadline(dl) // zero time clears any previous deadline
	}
	return nil
}

// roundTrip writes one v3 request frame and reads its response. The request
// is encoded into the client's reused buffer and goes out in one Write; the
// response is read through the connection's buffered reader, its payload
// into a buffer of the frame pool that travels with the response (its
// Config/Frames alias it). An op with no row in the op table is answered
// CodeUnknownOp without touching the wire. Coded server rejections stay on
// the response (callBuf converts them with respError; Forward passes them
// through raw). Callers hold c.mu.
func (c *Client) roundTrip(ctx context.Context, req *server.Request) (*server.Response, []byte, error) {
	if req.Row() == nil {
		return protocol.UnknownOp(req), nil, nil
	}
	if err := c.stamp(ctx, req); err != nil {
		return nil, nil, err
	}
	var err error
	c.wbuf, err = v3.AppendRequest(c.wbuf[:0], req)
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, nil, wrapCtx(ctx, err)
	}
	h, err := v3.ReadHeader(c.rd, &c.hdr)
	if err != nil {
		return nil, nil, wrapCtx(ctx, err)
	}
	payload, err := v3.ReadPayloadInto(c.rd, h, jbits.FrameBuf(int(h.Len)))
	if err != nil {
		return nil, nil, wrapCtx(ctx, err)
	}
	resp := &server.Response{Board: c.board}
	if err := v3.DecodeResponse(h, payload, resp); err != nil {
		jbits.RecycleFrame(payload)
		return nil, nil, err
	}
	c.board = resp.Board
	if resp.ID != req.ID {
		jbits.RecycleFrame(payload)
		return nil, nil, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, payload, nil
}

// wrapCtx attributes a transport error to the context when the context is
// the reason the transport gave up (deadline applied to the conn fired).
func wrapCtx(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("%w (transport: %v)", ctxErr, err)
	}
	return err
}

// Devices lists the device sessions the daemon hosts (in fleet mode, the
// admitted logical sessions).
func (c *Client) Devices(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, &server.Request{Op: "devices"})
	if err != nil {
		return nil, err
	}
	return resp.Devices, nil
}

// Stats fetches the daemon's statsz snapshot.
func (c *Client) Stats(ctx context.Context) (*protocol.StatsMsg, error) {
	resp, err := c.call(ctx, &server.Request{Op: "statsz"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Session is a handle on one named server device plus the local bitstream
// mirror. A Session is not safe for concurrent use; open one per worker.
type Session struct {
	c      *Client
	device string

	// Mirror is the client-side device image, advanced only by the dirty
	// frames mutating responses carry (after the initial full sync at
	// connect time). Frames are patched into the mirror's bitstream as they
	// arrive, and its LUT, flip-flop and BRAM reads see them at once; the
	// in-memory routing view is rebuilt lazily — call SyncMirror before
	// inspecting the routing.
	Mirror *device.Device

	// FramesApplied counts partial frames applied to the mirror.
	FramesApplied int

	// Board is the fleet board currently serving this session ("" on
	// static daemons); Epoch its incarnation. Both advance on failover.
	Board string
	Epoch uint64

	// Resyncs counts mirror re-seeds forced by an epoch change (failover):
	// the dirty-frame push chain breaks at a board swap, so the mirror is
	// rebuilt from a full readback of the replacement board.
	Resyncs int

	stale bool // bits newer than Mirror's in-memory routing state
}

// SyncMirror rebuilds the mirror's in-memory routing state from the
// accumulated bitstream patches (its logic needs no rebuild: it is read
// from the bits). It is a no-op when already in sync, so callers can
// invoke it before every inspection and pay the full reconstruction only
// once per burst of pushed frames.
func (s *Session) SyncMirror() error {
	if !s.stale {
		return nil
	}
	if err := s.Mirror.RebuildFromBits(); err != nil {
		return fmt.Errorf("client: rebuilding mirror state: %w", err)
	}
	s.stale = false
	return nil
}

// Session opens a session on a named device: a connect round trip seeds
// the local mirror with the server's full configuration. In fleet mode the
// session name is also the placement identity — the coordinator places it
// on board slot FNV1a(name) mod fleet size.
func (c *Client) Session(ctx context.Context, deviceName string) (*Session, error) {
	return c.session(ctx, &server.Request{Op: "connect", Session: deviceName})
}

// SessionWithKey opens a session with an explicit fleet placement key: the
// session lands on board slot key mod fleet size, letting callers co-place
// or spread sessions deliberately. Static daemons ignore the key.
func (c *Client) SessionWithKey(ctx context.Context, deviceName string, key uint64) (*Session, error) {
	return c.session(ctx, &server.Request{Op: "connect", Session: deviceName, Key: &key})
}

func (c *Client) session(ctx context.Context, req *server.Request) (*Session, error) {
	resp, buf, err := c.callBuf(ctx, req)
	if err != nil {
		return nil, err
	}
	defer jbits.RecycleFrame(buf) // the mirror copies the config as it applies it
	a, err := arch.ByName(resp.Arch)
	if err != nil {
		return nil, err
	}
	mirror, err := device.New(a, resp.Rows, resp.Cols)
	if err != nil {
		return nil, err
	}
	if err := mirror.ApplyConfig(resp.Config); err != nil {
		return nil, fmt.Errorf("client: seeding mirror: %w", err)
	}
	mirror.ClearDirty()
	return &Session{c: c, device: req.Session, Mirror: mirror,
		Board: resp.Board, Epoch: resp.Epoch}, nil
}

// Device returns the session's device name.
func (s *Session) Device() string { return s.device }

// VerifyMirror re-extracts the mirror's accumulated configuration through
// the bitstream oracle and checks the structural routing invariants (no
// double drivers, no antennas, no orphan roots, no loops). It validates
// the frames themselves — the mirror's in-memory routing view is not
// consulted and need not be synced.
func (s *Session) VerifyMirror() error {
	stream, err := s.Mirror.FullConfig()
	if err != nil {
		return fmt.Errorf("client: verify mirror: %w", err)
	}
	if err := oracle.Audit(s.Mirror.A, stream, nil, false); err != nil {
		return fmt.Errorf("client: verify mirror: %w", err)
	}
	return nil
}

// do runs one op against the session, applying any pushed dirty frames to
// the mirror. A board-epoch change on a successful response means the
// session failed over since the last op: the incremental frame chain broke
// at the swap, so the mirror is re-seeded from a full readback of the
// replacement board before the op's result is returned.
func (s *Session) do(ctx context.Context, req *server.Request) (*server.Response, error) {
	req.Session = s.device
	resp, buf, err := s.c.callBuf(ctx, req)
	if err != nil {
		return nil, err
	}
	// resp.Frames and resp.Config alias buf, which returns to the pool
	// when this function is done with it: frames are consumed into the
	// mirror here; a Config (readback through do) is detached so the
	// caller can keep it.
	if len(resp.Config) > 0 {
		resp.Config = append([]byte(nil), resp.Config...)
	}
	if resp.Epoch != s.Epoch {
		resp.Frames = nil
		jbits.RecycleFrame(buf)
		s.Board, s.Epoch = resp.Board, resp.Epoch
		if err := s.resync(ctx); err != nil {
			return nil, err
		}
		// The readback already reflects this op's effects; the piggybacked
		// frames are subsumed by it.
		return resp, nil
	}
	if len(resp.Frames) > 0 {
		_, aerr := s.Mirror.ApplyFramesRaw(resp.Frames)
		resp.Frames = nil
		jbits.RecycleFrame(buf)
		if aerr != nil {
			return nil, fmt.Errorf("client: applying pushed frames: %w", aerr)
		}
		s.Mirror.ClearDirty()
		s.FramesApplied += resp.FrameN
		s.stale = true
		return resp, nil
	}
	jbits.RecycleFrame(buf)
	return resp, nil
}

// resync re-seeds the mirror from a full readback. The readback is retried
// with capped exponential backoff plus jitter on transient rejections
// (failover in progress, queue momentarily full): a drain or failover that
// just bumped the epoch is often still settling the replacement board when
// the resync lands, and failing the client op over a beat of turbulence
// would turn a zero-loss handoff into a spurious error.
func (s *Session) resync(ctx context.Context) error {
	const maxAttempts = 8
	const maxBackoff = 250 * time.Millisecond
	backoff := 5 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter: a uniform draw from (0, backoff] so concurrent
			// sessions resyncing off the same epoch bump spread out.
			wait := time.Duration(rand.Int63n(int64(backoff))) + 1
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return fmt.Errorf("client: re-seeding mirror after failover: %w", ctx.Err())
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		resp, buf, err := s.c.callBuf(ctx, &server.Request{Op: "readback", Session: s.device})
		if err != nil {
			if errors.Is(err, ErrFailover) || errors.Is(err, ErrBusy) {
				lastErr = err
				continue
			}
			return fmt.Errorf("client: re-seeding mirror after failover: %w", err)
		}
		// The readback may itself ride a newer epoch (cascaded failover or a
		// drain completing mid-resync); adopt it so the next op does not
		// trigger a second, redundant resync.
		if resp.Epoch != 0 {
			s.Board, s.Epoch = resp.Board, resp.Epoch
		}
		aerr := s.Mirror.ApplyConfig(resp.Config)
		jbits.RecycleFrame(buf)
		if aerr != nil {
			return fmt.Errorf("client: re-seeding mirror after failover: %w", aerr)
		}
		s.Mirror.ClearDirty()
		s.Resyncs++
		s.stale = true
		return nil
	}
	return fmt.Errorf("client: re-seeding mirror after failover: %d attempts failed: %w",
		maxAttempts, lastErr)
}

// Pin converts a core.Pin to its wire form.
func Pin(p core.Pin) server.EndPointMsg {
	return server.EndPointMsg{Pin: protocol.PinMsg{Row: p.Row, Col: p.Col, Wire: int(p.W)}}
}

// PortRef names a port of a server-side core instance.
func PortRef(coreName, group string, index int) server.EndPointMsg {
	return server.EndPointMsg{Port: protocol.PortRefMsg{Core: coreName, Group: group, Index: index}, IsPort: true}
}

// Route connects source to one or more sinks (RouteNet / RouteFanout).
func (s *Session) Route(ctx context.Context, source server.EndPointMsg, sinks ...server.EndPointMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "route", Source: &source, Sinks: sinks})
	return err
}

// RouteBus routes width-aligned buses with the greedy sequential router.
func (s *Session) RouteBus(ctx context.Context, sources, sinks []server.EndPointMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "bus", Sources: sources, Sinks: sinks})
	return err
}

// RouteBusBatch routes a bus with the negotiated batch router.
func (s *Session) RouteBusBatch(ctx context.Context, sources, sinks []server.EndPointMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "bus_batch", Sources: sources, Sinks: sinks})
	return err
}

// RouteBatch routes a set of nets together under negotiated congestion.
func (s *Session) RouteBatch(ctx context.Context, nets []protocol.NetMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "batch", Nets: nets})
	return err
}

// Unroute removes the net sourced at the endpoint.
func (s *Session) Unroute(ctx context.Context, source server.EndPointMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "unroute", Source: &source})
	return err
}

// ReverseUnroute removes only the branch feeding one sink.
func (s *Session) ReverseUnroute(ctx context.Context, sink server.EndPointMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "reverse_unroute", Source: &sink})
	return err
}

// Trace returns the net driven by the source endpoint.
func (s *Session) Trace(ctx context.Context, source server.EndPointMsg) (*protocol.NetMsg, error) {
	resp, err := s.do(ctx, &server.Request{Op: "trace", Source: &source})
	if err != nil {
		return nil, err
	}
	return resp.Net, nil
}

// ReverseTrace returns the net branch feeding the sink endpoint.
func (s *Session) ReverseTrace(ctx context.Context, sink server.EndPointMsg) (*protocol.NetMsg, error) {
	resp, err := s.do(ctx, &server.Request{Op: "reverse_trace", Source: &sink})
	if err != nil {
		return nil, err
	}
	return resp.Net, nil
}

// NewCore instantiates and implements a library core on the session's
// device.
func (s *Session) NewCore(ctx context.Context, msg protocol.CoreMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "core_new", Core: &msg})
	return err
}

// ReplaceCore runs the §3.3 replace flow on a named core: unroute its
// ports, remove, optionally retune (constmul K), re-place at (row,col),
// re-implement, reconnect.
func (s *Session) ReplaceCore(ctx context.Context, msg protocol.CoreMsg) error {
	_, err := s.do(ctx, &server.Request{Op: "core_replace", Core: &msg})
	return err
}

// Readback pulls the server's full configuration stream (the heavyweight
// alternative to the incremental mirror).
func (s *Session) Readback(ctx context.Context) ([]byte, error) {
	resp, err := s.do(ctx, &server.Request{Op: "readback"})
	if err != nil {
		return nil, err
	}
	return resp.Config, nil
}
