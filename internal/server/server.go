package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core/library"
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
	// EnqueueTimeout is how long a request waits for a slot in a full
	// session queue before the server answers busy (default 5s).
	EnqueueTimeout time.Duration
	// ParanoidVerify is passed to every session router: after each
	// automatic routing op the committed frames are re-extracted and
	// audited by the bitstream oracle (see core.Options.ParanoidVerify).
	ParanoidVerify bool
	// Library, when set, seeds every session router with a persistent
	// route-template library, shared read-only across all workers. NewServer
	// audits an unaudited library once so N workers do not each re-sweep
	// it. See core.Options.Library.
	Library *library.Library
	// Auth, when set, must map the hello bearer token to a tenant name.
	// A non-nil error rejects the handshake with CodeUnauthorized. The
	// resolved tenant is stamped on every request the connection sends
	// (Request.Tenant), so downstream admission can trust it. Nil Auth
	// (every plain daemon) admits every hello as the anonymous tenant "".
	Auth func(token string) (tenant string, err error)
}

func (o Options) enqueueTimeout() time.Duration {
	if o.EnqueueTimeout <= 0 {
		return 5 * time.Second
	}
	return o.EnqueueTimeout
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
	Stats() *FleetStatsMsg
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
// TCP listener speaking the service protocol (a JSON hello, then binary v3
// frames; see internal/server/protocol).
type Server struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Worker
	fleet    Fleet
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closing  bool

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
// through it, and the daemon advertises the "fleet" capability. Attach
// before Start.
func (s *Server) SetFleet(f Fleet) {
	s.mu.Lock()
	s.fleet = f
	s.mu.Unlock()
}

// caps lists the capability flags the hello response advertises.
func (s *Server) caps() []string {
	caps := []string{protocol.CapBinV3}
	s.mu.Lock()
	fleet := s.fleet
	s.mu.Unlock()
	if fleet != nil {
		caps = append(caps, protocol.CapFleet)
	}
	if s.opts.ParanoidVerify {
		caps = append(caps, protocol.CapParanoid)
	}
	return caps
}

// noteIO records one request/response exchange's wire traffic; helloed
// marks the exchange that completed a connection's handshake.
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
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	if tenant, delta, ok := s.handshake(conn); ok {
		s.serveV3(conn, tenant, delta)
	}
}

// handshake reads the connection's one JSON frame, answers it, and reports
// whether the connection may go on to v3 and as which tenant. Anything but
// a well-formed hello that offers binv3 is answered with a typed error and
// refused, so a client of an older framing gets one clear response instead
// of undefined behaviour mid-session. delta reports whether the hello asked
// for record deltas (protocol.CapDelta).
func (s *Server) handshake(conn net.Conn) (tenant string, delta, ok bool) {
	op, payload, err := jbits.ReadFrame(conn)
	if err != nil {
		return "", false, false // EOF, deadline (shutdown), or transport failure
	}
	var req Request
	var resp *Response
	if op != OpService {
		resp = &Response{ErrorCode: protocol.CodeBadRequest,
			Err: fmt.Sprintf("server: unknown opcode %#x", op)}
	} else if err := json.Unmarshal(payload, &req); err != nil {
		resp = &Response{ErrorCode: protocol.CodeBadRequest,
			Err: fmt.Sprintf("server: bad request: %v", err)}
	} else if req.Op != "hello" {
		resp = &Response{ErrorCode: protocol.CodeVersion,
			Err: fmt.Sprintf("server: hello handshake required before %q (server speaks protocol v%d)",
				req.Op, protocol.Version)}
	} else {
		resp, tenant = s.hello(&req)
		delta = req.Hello != nil && slices.Contains(req.Hello.Caps, protocol.CapDelta)
	}
	resp.ID = req.ID
	ok = resp.Err == ""
	out, err := json.Marshal(resp)
	if err != nil {
		return "", false, false
	}
	werr := jbits.WriteFrame(conn, OpService|jbits.RespFlag, out)
	s.noteIO(ok, len(payload), len(out))
	jbits.RecycleFrame(payload)
	return tenant, delta, ok && werr == nil
}

// serveV3 is the per-connection loop after the hello: fixed-header
// framing, varint op records, and the zero-copy frame path — a mutating
// op's dirty frames go from the worker's pooled stream buffer to the
// socket in one vectored write, with no intermediate marshal. Read buffers
// are reused across requests; a frame failing the pre-parse filter is
// answered with a typed malformed error and the connection closed (the
// byte stream can no longer be trusted to be frame-aligned). Only a
// connection whose hello asked for deltas gets them.
func (s *Server) serveV3(conn net.Conn, tenant string, delta bool) {
	var hdr [v3.HeaderSize]byte
	var payload []byte // reused request-payload buffer
	var out []byte     // reused response-encode buffer
	var bufs net.Buffers
	interner := v3.NewInterner()
	for {
		h, err := v3.ReadHeader(conn, &hdr)
		if err != nil {
			var fe *v3.FilterError
			if errors.As(err, &fe) {
				s.noteMalformed()
				head, _, eerr := v3.AppendResponse(out[:0], protocol.OpDevices,
					&Response{Err: fe.Error(), ErrorCode: protocol.CodeMalformed})
				if eerr == nil {
					_ = v3.WriteMsg(conn, &bufs, head, nil)
				}
			}
			return // EOF, deadline (shutdown), garbage, or transport failure
		}
		payload, err = v3.ReadPayloadInto(conn, h, payload)
		if err != nil {
			return
		}
		// A fresh Request per message: the worker may still hold a
		// reference after a canceled Submit returns, so the struct cannot
		// be reused across loop iterations.
		req := new(Request)
		var resp *Response
		if protocol.OpByByte(h.Op) == nil {
			// A well-formed frame naming an op this server has no row for.
			resp = &Response{ID: h.ID, ErrorCode: protocol.CodeUnknownOp,
				Err: fmt.Sprintf("server: unknown op byte %#x", h.Op)}
		} else if derr := v3.DecodeRequest(h, payload, req, interner); derr != nil {
			s.noteMalformed()
			resp = &Response{ID: h.ID, Err: derr.Error(), ErrorCode: protocol.CodeMalformed}
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
		werr := v3.WriteMsg(conn, &bufs, head, raw)
		putStream(resp.Frames) // frames are on the wire; recycle the buffer
		resp.Frames = nil
		s.noteIO(false, len(payload), len(head)+len(raw))
		if werr != nil {
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

// hello answers the version handshake and, when an authenticator is
// configured, resolves the bearer token to the connection's tenant.
func (s *Server) hello(req *Request) (*Response, string) {
	if req.Hello == nil {
		return &Response{ErrorCode: protocol.CodeVersion,
			Err: "server: hello without version"}, ""
	}
	if req.Hello.Version != protocol.Version {
		return &Response{ErrorCode: protocol.CodeVersion,
			Err: fmt.Sprintf("server: protocol version mismatch: client speaks v%d, server speaks v%d",
				req.Hello.Version, protocol.Version)}, ""
	}
	if !slices.Contains(req.Hello.Caps, protocol.CapBinV3) {
		return &Response{ErrorCode: protocol.CodeVersion,
			Err: fmt.Sprintf("server: hello does not offer %q, the only framing this server speaks",
				protocol.CapBinV3)}, ""
	}
	tenant := ""
	if s.opts.Auth != nil {
		var err error
		tenant, err = s.opts.Auth(req.Hello.Token)
		if err != nil {
			return &Response{ErrorCode: protocol.CodeUnauthorized,
				Err: fmt.Sprintf("server: %v", err)}, ""
		}
	}
	return &Response{Hello: &HelloMsg{Version: protocol.Version, Caps: s.caps(), Layouts: arch.Layouts()}}, tenant
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

// Stats snapshots every session's counters — the statsz payload — plus the
// fleet section when a coordinator is attached.
func (s *Server) Stats() *StatsMsg {
	s.mu.Lock()
	sessions := make([]*Worker, 0, len(s.sessions))
	for _, w := range s.sessions {
		sessions = append(sessions, w)
	}
	fleet := s.fleet
	s.mu.Unlock()
	out := &StatsMsg{Sessions: make(map[string]SessionStatsMsg, len(sessions))}
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
	ln := s.ln
	// Unblock connection handlers idling in ReadFrame; handlers that are
	// mid-request finish processing and writing first.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	connsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	var err error
	select {
	case <-connsDone:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-connsDone
		err = fmt.Errorf("server: shutdown deadline exceeded, connections closed forcibly")
	}

	// All submitters are gone; close the queues and wait for the workers
	// to drain what is left.
	s.mu.Lock()
	sessions := make([]*Worker, 0, len(s.sessions))
	for _, w := range s.sessions {
		sessions = append(sessions, w)
	}
	fleet := s.fleet
	s.mu.Unlock()
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
