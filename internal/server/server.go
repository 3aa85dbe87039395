package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/jbits"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// Options tune the daemon.
type Options struct {
	// QueueDepth bounds each session's request queue (default 64).
	QueueDepth int
	// Parallelism is passed to every session router's negotiated batch
	// routing (0 = GOMAXPROCS).
	Parallelism int
	// ParanoidVerify is passed to every session router: after each
	// automatic routing op the committed frames are re-extracted and
	// audited by the bitstream oracle (see core.Options.ParanoidVerify).
	ParanoidVerify bool
	// Auth, when set, must map the hello bearer token to a tenant name.
	// A non-nil error refuses the hello with CodeUnauthorized. The
	// resolved tenant is stamped on every request the connection sends
	// (Request.Tenant), so downstream admission can trust it. Nil Auth
	// (every plain daemon) admits every hello as the anonymous tenant "".
	Auth func(token string) (tenant string, err error)
}

// Fleet is the coordinator hook: when attached with SetFleet, per-device
// ops (connect included — that is where placement happens) are delegated to
// it instead of the static session table. internal/server/fleet implements
// it.
type Fleet interface {
	// Submit handles one per-session request end to end: placement and
	// admission on connect, board lookup and failover handling on
	// everything else.
	Submit(ctx context.Context, req *Request) *Response
	// Sessions lists the admitted logical session names.
	Sessions() []string
	// Stats snapshots the coordinator counters and per-board sections.
	Stats() *protocol.FleetStatsMsg
	// Shutdown stops health probing and drains the board workers.
	Shutdown(ctx context.Context) error
}

// GatewayStatser is the optional Fleet extension a gateway coordinator
// implements: its counters ride statsz under the "gateway" key instead of
// the fleet section (which describes boards, not backends).
type GatewayStatser interface {
	GatewayStats() *protocol.GatewayStatsMsg
}

// Server is the jrouted daemon: many named device sessions behind one
// TCP listener speaking the service protocol (binary v3 frames from the
// first byte, the first of them a hello; see internal/server/protocol).
type Server struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Worker
	fleet    Fleet
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closing  bool
	accept   *Loop

	wmu  sync.Mutex
	wire protocol.WireStatsMsg

	connWG sync.WaitGroup
}

// AddDevice creates a named static device session. archName may be
// "virtex" (default) or "kestrel".
func (s *Server) AddDevice(name, archName string, rows, cols int) error {
	if name == "" {
		return fmt.Errorf("server: device needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return fmt.Errorf("server: shutting down")
	}
	if _, dup := s.sessions[name]; dup {
		return fmt.Errorf("server: device %q already exists", name)
	}
	w, err := NewWorker(WorkerConfig{Name: name, Arch: archName, Rows: rows, Cols: cols, Opts: s.opts})
	if err != nil {
		return err
	}
	s.sessions[name] = w
	return nil
}

// SetFleet attaches a fleet coordinator: all per-device traffic is routed
// through it. Attach before Start.
func (s *Server) SetFleet(f Fleet) {
	s.mu.Lock()
	s.fleet = f
	s.mu.Unlock()
}

// noteIO records one request/response exchange's wire traffic; helloed
// marks the exchange that was a connection's accepted hello.
func (s *Server) noteIO(helloed bool, bytesIn, bytesOut int) {
	s.wmu.Lock()
	if helloed {
		s.wire.Conns++
	}
	s.wire.FramesIn++
	s.wire.FramesOut++
	s.wire.BytesIn += bytesIn
	s.wire.BytesOut += bytesOut
	s.wmu.Unlock()
}

// noteMalformed counts one v3 frame rejected before dispatch.
func (s *Server) noteMalformed() {
	s.wmu.Lock()
	s.wire.Malformed++
	s.wmu.Unlock()
}

// ProbeTimeout bounds a health probe: a fleet's tick, a gateway's probe or handoff.
const ProbeTimeout = 2 * time.Second

// Loop is a goroutine that runs one step over and over until it is
// stopped: the accept loop, and the fleet's and the gateway's health
// probes. A step that panics is recovered and counted where that loop's
// work is counted, and the next step runs, so no loop takes the process
// down.
type Loop struct {
	stop context.CancelFunc
	done chan struct{}
}

// StartLoop runs step until Stop is called or step returns false: each
// step on the next tick of period every when every > 0, back to back
// otherwise. A step that panics calls panicked, and the loop goes on. Stop
// cancels the context every step gets.
func StartLoop(every time.Duration, step func(context.Context) bool, panicked func()) *Loop {
	ctx, stop := context.WithCancel(context.Background())
	l := &Loop{stop: stop, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		wait := func() {}
		if every > 0 {
			t := time.NewTicker(every)
			defer t.Stop()
			wait = func() {
				select {
				case <-t.C:
				case <-ctx.Done():
				}
			}
		}
		for {
			if wait(); ctx.Err() != nil || !runStep(ctx, step, panicked) {
				return
			}
		}
	}()
	return l
}

// runStep runs one step; a step that panicked asks for the next.
func runStep(ctx context.Context, step func(context.Context) bool, panicked func()) (more bool) {
	defer func() {
		if recover() != nil {
			panicked()
			more = true
		}
	}()
	return step(ctx)
}

// Stop cancels the step in flight, waits for it to return, and starts no
// step after. A nil Loop, one never started, stops at once.
func (l *Loop) Stop() {
	if l != nil {
		l.stop()
		<-l.done
	}
}

// Start listens on addr and serves connections in the background,
// returning the bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("server: shutting down")
	}
	s.ln = ln
	s.accept = StartLoop(0, func(context.Context) bool { return s.acceptOne(ln) }, s.notePanic)
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// acceptOne is the accept loop's step: it accepts one connection and
// serves it on its own goroutine, and reports false once the listener is
// closed or the server is shutting down.
func (s *Server) acceptOne(ln net.Listener) bool {
	conn, err := ln.Accept()
	if err != nil {
		return false
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	go s.handleConn(conn)
	return true
}

// notePanic counts one recovered panic on a connection or accept step.
func (s *Server) notePanic() {
	s.wmu.Lock()
	s.wire.Panics++
	s.wmu.Unlock()
}

// handleConn serves one connection. A panic on its goroutine — in
// dispatch, or in a fleet's or gateway's Submit, which run here — ends
// this connection only, and is counted in statsz.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		if recover() != nil {
			s.notePanic()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	s.serve(conn)
}

// legacyHello is byte 0 of the XHWIF-framed JSON hello a client of the
// earlier two-framing protocol opens with (op 0x10, a big-endian u32
// length, the payload; never shorter than a v3 header). Such a first frame
// is drained and answered with legacyRefusal, the one framed-JSON message
// this server writes: op 0x90 (the response bit set), length 0x6f, and a
// version_mismatch response with id 1, the id those clients gave their
// hello.
const (
	legacyHello   = 0x10
	legacyRefusal = "\x90\x00\x00\x00\x6f" +
		`{"id":1,"code":"version_mismatch","err":"server: protocol version mismatch: this server speaks binary v3 only"}`
)

// serve is the connection loop: fixed-header framing, varint op records,
// and the frame path — a mutating op's dirty frames go from the worker's
// pooled frame buffer to the socket in one write, with no intermediate
// marshal, and the buffer goes back to the pool (jbits.FrameBuf). Every
// read goes through one buffered reader, so a request whose header and
// payload arrived together costs one read; read buffers are reused across
// requests.
//
// The first frame must be a hello; any other first frame, or a hello that
// is refused, is answered and the connection closed. A frame failing the
// pre-parse filter is answered with its typed error and the connection
// closed (the byte stream can no longer be trusted to be frame-aligned).
// Only a connection whose hello asked for deltas gets them.
func (s *Server) serve(conn net.Conn) {
	rd := bufio.NewReaderSize(conn, v3.BufSize)
	var hdr [v3.HeaderSize]byte
	var payload []byte // reused request-payload buffer
	var out []byte     // reused response-encode buffer
	var ws v3.WriteScratch
	interner := v3.NewInterner()
	var tenant string
	helloed, delta := false, false
	for {
		h, err := v3.ReadHeader(rd, &hdr)
		if err != nil {
			var fe *v3.FilterError
			if !helloed && hdr[0] == legacyHello {
				// Drain the frame, so closing with its bytes unread does not
				// reset the connection under the refusal.
				if n := int64(binary.BigEndian.Uint32(hdr[1:5])) - (v3.HeaderSize - 5); n > 0 && n <= v3.MaxPayload {
					_, _ = io.CopyN(io.Discard, rd, n)
				}
				_, _ = io.WriteString(conn, legacyRefusal)
			} else if errors.As(err, &fe) {
				s.noteMalformed()
				head, _, eerr := v3.AppendResponse(out[:0], protocol.OpDevices,
					&Response{Err: fe.Error(), ErrorCode: fe.Code})
				if eerr == nil {
					_, _ = conn.Write(head)
				}
			}
			return // EOF, deadline (shutdown), garbage, or transport failure
		}
		payload, err = v3.ReadPayloadInto(rd, h, payload)
		if err != nil {
			return
		}
		// A fresh Request per message: the worker may still hold a
		// reference after a canceled Submit returns, so the struct cannot
		// be reused across loop iterations.
		req := new(Request)
		var resp *Response
		first := !helloed
		if first && h.Op != protocol.OpHello {
			resp = &Response{ID: h.ID, ErrorCode: protocol.CodeVersion,
				Err: "server: a connection's first frame must be a hello"}
		} else if protocol.OpByByte(h.Op) == nil {
			// A well-formed frame naming an op this server has no row for.
			resp = &Response{ID: h.ID, ErrorCode: protocol.CodeUnknownOp,
				Err: fmt.Sprintf("server: unknown op byte %#x", h.Op)}
		} else if derr := v3.DecodeRequest(h, payload, req, interner); derr != nil {
			s.noteMalformed()
			resp = &Response{ID: h.ID, Err: derr.Error(), ErrorCode: protocol.CodeMalformed}
		} else if first {
			resp, tenant = s.hello(req)
			delta, helloed = req.Hello.Delta, resp.Err == ""
		} else if h.Op == protocol.OpHello {
			resp = &Response{ID: h.ID, ErrorCode: protocol.CodeBadRequest,
				Err: "server: a connection says hello once"}
		} else {
			req.Tenant, req.WantDelta = tenant, delta
			resp = s.dispatch(req)
			if !delta {
				resp.Delta = nil
			}
		}
		head, raw, err := v3.AppendResponse(out[:0], h.Op, resp)
		if err != nil {
			head, raw, err = v3.AppendResponse(out[:0], h.Op,
				&Response{ID: h.ID, Err: fmt.Sprintf("server: encoding response: %v", err),
					ErrorCode: protocol.CodeInternal})
			if err != nil {
				return
			}
		}
		out = head[:0] // keep the grown capacity for the next response
		werr := v3.WriteMsg(conn, &ws, head, raw)
		jbits.RecycleFrame(resp.Frames) // frames are on the wire; recycle the buffer
		resp.Frames = nil
		s.noteIO(first && helloed, len(payload), len(head)+len(raw))
		if werr != nil || !helloed {
			return
		}
		s.mu.Lock()
		closing := s.closing
		s.mu.Unlock()
		if closing {
			return // graceful shutdown: in-flight request answered, stop
		}
	}
}

// hello answers a connection's hello with the server's PIP bit layouts
// and, when an authenticator is configured, resolves the bearer token to
// the connection's tenant.
func (s *Server) hello(req *Request) (resp *Response, tenant string) {
	if s.opts.Auth != nil {
		var err error
		if tenant, err = s.opts.Auth(req.Hello.Token); err != nil {
			return &Response{ID: req.ID, ErrorCode: protocol.CodeUnauthorized,
				Err: fmt.Sprintf("server: %v", err)}, ""
		}
	}
	return &Response{ID: req.ID, Hello: &protocol.HelloMsg{Layouts: arch.Layouts()}}, tenant
}

// reqContext derives the request context from the deadline the client
// propagated over the wire.
func reqContext(req *Request) (context.Context, context.CancelFunc) {
	if req.TimeoutMillis > 0 {
		return context.WithTimeout(context.Background(), time.Duration(req.TimeoutMillis)*time.Millisecond)
	}
	return context.Background(), func() {}
}

// dispatch routes a request by its row's scope: connection ops run inline;
// session ops go through the owning worker's bounded queue, or the fleet
// coordinator when one is attached; admin ops only a gateway (attached as
// the fleet) serves.
func (s *Server) dispatch(req *Request) *Response {
	op := req.Row()
	if op == nil {
		return protocol.UnknownOp(req)
	}
	s.mu.Lock()
	fleet := s.fleet
	s.mu.Unlock()
	switch op.Byte {
	case protocol.OpDevices:
		resp := &Response{ID: req.ID}
		if fleet != nil {
			resp.Devices = fleet.Sessions()
			return resp
		}
		s.mu.Lock()
		for name := range s.sessions {
			resp.Devices = append(resp.Devices, name)
		}
		s.mu.Unlock()
		return resp
	case protocol.OpStatsz:
		return &Response{ID: req.ID, Stats: s.Stats()}
	}
	ctx, cancel := reqContext(req)
	defer cancel()
	if fleet != nil {
		resp := fleet.Submit(ctx, req)
		resp.ID = req.ID
		return resp
	}
	if op.Scope != protocol.ScopeSession {
		return protocol.UnknownOp(req) // admin ops need a gateway behind the listener
	}
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	s.mu.Unlock()
	if !ok {
		return &Response{ID: req.ID, ErrorCode: protocol.CodeNoDevice,
			Err: fmt.Sprintf("server: no device %q", req.Session)}
	}
	return sess.Submit(ctx, req)
}

// workers snapshots the static sessions and the attached fleet.
func (s *Server) workers() ([]*Worker, Fleet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*Worker, 0, len(s.sessions))
	for _, w := range s.sessions {
		sessions = append(sessions, w)
	}
	return sessions, s.fleet
}

// Stats snapshots every session's counters — the statsz payload — plus the
// fleet section when a coordinator is attached.
func (s *Server) Stats() *protocol.StatsMsg {
	sessions, fleet := s.workers()
	out := &protocol.StatsMsg{Sessions: make(map[string]SessionStatsMsg, len(sessions))}
	for _, w := range sessions {
		out.Sessions[w.Name()] = w.StatsSnapshot()
	}
	if fleet != nil {
		out.Fleet = fleet.Stats()
		if gw, ok := fleet.(GatewayStatser); ok {
			out.Gateway = gw.GatewayStats()
		}
	}
	s.wmu.Lock()
	wire := s.wire
	s.wmu.Unlock()
	out.Wire = &wire
	return out
}

// Shutdown stops the daemon gracefully: no new connections are accepted,
// every in-flight request is answered and every queued route drains, then
// the session workers (and the fleet, when attached) exit. The context
// bounds the wait; on expiry the remaining connections are closed forcibly
// and the error reported.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.closing = true
	ln, accept := s.ln, s.accept
	// Unblock connection handlers idling in a read; handlers that are
	// mid-request finish processing and writing first.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	accept.Stop()

	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	})
	s.connWG.Wait()
	var err error
	if !stop() {
		err = fmt.Errorf("server: shutdown deadline exceeded, connections closed forcibly")
	}

	// All submitters are gone; close the queues and wait for the workers
	// to drain what is left.
	sessions, fleet := s.workers()
	for _, w := range sessions {
		w.Close()
	}
	for _, w := range sessions {
		select {
		case <-w.Done():
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("server: shutdown deadline exceeded draining session %s", w.Name())
			}
		}
	}
	if fleet != nil {
		if ferr := fleet.Shutdown(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
