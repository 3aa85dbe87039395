package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
)

// maxIdleConns bounds the per-backend pooled connection count; extra
// connections returned to a full pool are closed.
const maxIdleConns = 8

// backend is one fronted fleet as the gateway tracks it. Mutable fields
// are guarded by Gateway.mu.
type backend struct {
	name    string
	addr    string
	classes map[string]bool

	healthy    bool
	draining   bool
	sessions   int
	ops        int
	errs       int
	probeFails int
	idle       []*client.Client
}

func (b *backend) serves(class string) bool {
	return class == "" || b.classes[class]
}

// bucket is a token-bucket rate limiter (guarded by Gateway.mu).
type bucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func (b *bucket) take(now time.Time) bool {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// tenant is one configured tenant's live admission state (guarded by
// Gateway.mu).
type tenant struct {
	name       string
	admin      bool
	sessionCap int
	bucket     *bucket // nil = unlimited ops/s

	sessions         int
	admittedOps      int
	rejectedOps      int
	rejectedSessions int
}

// gwSession is one logical session's pin: which backend serves it, the
// epochs on both sides of the gateway, and the acked-op journal that moves
// it. sess.mu serializes client ops against relocation; the pin and
// counters are additionally read under Gateway.mu by drain/stats.
type gwSession struct {
	mu sync.Mutex

	name   string
	tenant string
	class  string
	key    uint64

	backend      *backend
	epoch        uint64 // client-visible; bumps whenever the mirror chain breaks
	backendEpoch uint64 // the pinned backend's epoch as last observed

	connectReq *server.Request // detached copy of the original connect
	log        opLog
}

// Gateway fronts N backend fleets behind the ordinary service protocol.
// It implements server.Fleet (attach with srv.SetFleet) and
// server.GatewayStatser; wire Authenticate through server.WithAuth.
type Gateway struct {
	cfg Config

	mu       sync.Mutex
	order    []*backend // name-sorted; placement pools index into this
	backends map[string]*backend
	sessions map[string]*gwSession
	tenants  map[string]*tenant // by name
	tokens   map[string]*tenant // by bearer token
	closing  bool

	probes       int
	probeFails   int
	ejections    int
	readmits     int
	drains       int
	handoffs     int
	handoffFails int
	replayedOps  int
	replaySkips  int

	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a gateway from a config. Backends start healthy; the probe
// loop (when enabled) corrects that within one interval.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:      cfg,
		backends: make(map[string]*backend, len(cfg.Backends)),
		sessions: make(map[string]*gwSession),
		tenants:  make(map[string]*tenant, len(cfg.Tenants)),
		tokens:   make(map[string]*tenant, len(cfg.Tenants)),
	}
	for _, bc := range cfg.Backends {
		if bc.Name == "" || bc.Addr == "" {
			return nil, fmt.Errorf("gateway: backend needs name and addr (got %q/%q)", bc.Name, bc.Addr)
		}
		if _, dup := g.backends[bc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %q", bc.Name)
		}
		be := &backend{name: bc.Name, addr: bc.Addr, healthy: true,
			classes: make(map[string]bool, len(bc.Classes))}
		for _, cl := range bc.Classes {
			be.classes[cl] = true
		}
		g.backends[bc.Name] = be
		g.order = append(g.order, be)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].name < g.order[j].name })
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || tc.Token == "" {
			return nil, fmt.Errorf("gateway: tenant needs name and token (got %q)", tc.Name)
		}
		if _, dup := g.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant %q", tc.Name)
		}
		if _, dup := g.tokens[tc.Token]; dup {
			return nil, fmt.Errorf("gateway: tenant %q reuses another tenant's token", tc.Name)
		}
		t := &tenant{name: tc.Name, admin: tc.Admin, sessionCap: tc.SessionCap}
		if tc.OpsPerSec > 0 {
			burst := tc.Burst
			if burst <= 0 {
				burst = 2 * tc.OpsPerSec
				if burst < 1 {
					burst = 1
				}
			}
			t.bucket = &bucket{rate: tc.OpsPerSec, burst: burst, tokens: burst}
		}
		g.tenants[tc.Name] = t
		g.tokens[tc.Token] = t
	}
	if iv := cfg.probeInterval(); iv > 0 {
		g.probeStop = make(chan struct{})
		g.probeDone = make(chan struct{})
		go g.probeLoop(iv)
	}
	return g, nil
}

// Authenticate maps a hello bearer token to its tenant; plug it into the
// fronting server with server.WithAuth(g.Authenticate). With no tenants
// configured every connection is the anonymous tenant "".
func (g *Gateway) Authenticate(token string) (string, error) {
	if len(g.tokens) == 0 {
		return "", nil
	}
	g.mu.Lock()
	t, ok := g.tokens[token]
	g.mu.Unlock()
	if !ok {
		return "", errors.New("gateway: unknown or missing bearer token")
	}
	return t.name, nil
}

// classOf extracts the device-class alias from a session name: the prefix
// before the first "/", or the default class for bare names.
func classOf(session, def string) string {
	if i := strings.IndexByte(session, '/'); i > 0 {
		return session[:i]
	}
	return def
}

// poolFor lists the healthy, non-draining backends serving a class in name
// order (the deterministic placement pool), and whether any configured
// backend — healthy or not — serves it at all. Callers hold g.mu.
func (g *Gateway) poolFor(class string) (pool []*backend, served bool) {
	for _, be := range g.order {
		if !be.serves(class) {
			continue
		}
		served = true
		if be.healthy && !be.draining {
			pool = append(pool, be)
		}
	}
	return pool, served
}

// conn pops a pooled connection to a backend, dialing a fresh one when the
// pool is empty.
func (g *Gateway) conn(ctx context.Context, be *backend) (*client.Client, error) {
	g.mu.Lock()
	var c *client.Client
	if n := len(be.idle); n > 0 {
		c = be.idle[n-1]
		be.idle = be.idle[:n-1]
	}
	g.mu.Unlock()
	if c != nil {
		return c, nil
	}
	dial := g.cfg.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (*client.Client, error) {
			return client.Dial(ctx, addr)
		}
	}
	return dial(ctx, be.addr)
}

func (g *Gateway) putConn(be *backend, c *client.Client) {
	g.mu.Lock()
	if !g.closing && len(be.idle) < maxIdleConns {
		be.idle = append(be.idle, c)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	c.Close()
}

// forward proxies one request to a backend over a pooled connection. The
// request is forwarded as a copy (Forward stamps its own wire ID; the
// caller's struct must stay untouched so the fronting server can re-match
// the response by the client's ID). A transport error closes the
// connection — after an abandoned round trip the stream is no longer
// frame-aligned — and counts against the backend.
func (g *Gateway) forward(ctx context.Context, be *backend, req *server.Request) (*server.Response, error) {
	c, err := g.conn(ctx, be)
	if err != nil {
		g.mu.Lock()
		be.errs++
		g.mu.Unlock()
		return nil, err
	}
	fwd := *req
	fwd.Tenant = ""
	resp, err := c.Forward(ctx, &fwd)
	g.mu.Lock()
	be.ops++
	if err != nil {
		be.errs++
		g.mu.Unlock()
		c.Close()
		return nil, err
	}
	g.mu.Unlock()
	g.putConn(be, c)
	return resp, nil
}

func coded(id uint64, code, msg string) *server.Response {
	return &server.Response{ID: id, ErrorCode: code, Err: msg}
}

// Submit implements server.Fleet: every session and admin request lands
// here, and is rejected before it is forwarded anywhere if the op table
// has no row for it.
func (g *Gateway) Submit(ctx context.Context, req *server.Request) *server.Response {
	op := req.Row()
	switch {
	case op == nil:
		return protocol.UnknownOp(req)
	case op.Byte == protocol.OpGwDrain:
		return g.drainOp(ctx, req)
	case op.Byte == protocol.OpConnect:
		return g.connect(ctx, req)
	case op.Scope == protocol.ScopeSession:
		return g.sessionOp(ctx, op, req)
	}
	return protocol.UnknownOp(req)
}

// connect admits a session: resolve the class alias, check the tenant's
// session cap, pick the backend by affinity, and proxy the connect through
// so the client seeds its mirror from the backend's real configuration.
func (g *Gateway) connect(ctx context.Context, req *server.Request) *server.Response {
	class := classOf(req.Session, g.cfg.DefaultClass)
	g.mu.Lock()
	if sess, ok := g.sessions[req.Session]; ok {
		g.mu.Unlock()
		if sess.tenant != req.Tenant {
			return coded(req.ID, protocol.CodeUnauthorized,
				fmt.Sprintf("gateway: session %q belongs to another tenant", req.Session))
		}
		return g.reconnect(ctx, sess, req)
	}
	t := g.tenants[req.Tenant]
	if t != nil && t.sessionCap > 0 && t.sessions >= t.sessionCap {
		t.rejectedSessions++
		g.mu.Unlock()
		return coded(req.ID, protocol.CodeQuota,
			fmt.Sprintf("gateway: tenant %q at its session cap (%d)", t.name, t.sessionCap))
	}
	pool, served := g.poolFor(class)
	if !served {
		g.mu.Unlock()
		return coded(req.ID, protocol.CodeUnknownAlias,
			fmt.Sprintf("gateway: no backend serves device class %q", class))
	}
	if len(pool) == 0 {
		g.mu.Unlock()
		return coded(req.ID, protocol.CodeBoardDown,
			fmt.Sprintf("gateway: no healthy backend for device class %q", class))
	}
	key := fleet.PlacementKey(req.Session)
	if req.Key != nil {
		key = *req.Key
	}
	be := pool[int(key%uint64(len(pool)))]
	sess := &gwSession{name: req.Session, tenant: req.Tenant, class: class,
		key: key, backend: be, epoch: 1}
	// Registering before the connect round trip makes concurrent connects
	// to the same name serialize on sess.mu instead of double-admitting.
	// Locking the freshly made mutex under g.mu cannot block.
	sess.mu.Lock()
	g.sessions[req.Session] = sess
	be.sessions++
	if t != nil {
		t.sessions++
	}
	g.mu.Unlock()
	defer sess.mu.Unlock()

	resp, err := g.forward(ctx, be, req)
	if err != nil || resp.ErrorCode != "" {
		g.mu.Lock()
		delete(g.sessions, req.Session)
		be.sessions--
		if t != nil {
			t.sessions--
		}
		g.mu.Unlock()
		if err != nil {
			return coded(req.ID, protocol.CodeFailover,
				fmt.Sprintf("gateway: backend %s unreachable: %v", be.name, err))
		}
		return resp
	}
	sess.backendEpoch = resp.Epoch
	cr := *req
	cr.ID, cr.TimeoutMillis, cr.Tenant = 0, 0, ""
	sess.connectReq = &cr
	resp.Epoch = sess.epoch
	resp.Board = be.name + "/" + resp.Board
	return resp
}

// reconnect re-opens an existing session (a client re-dialing after a
// dropped connection): the connect proxies to the pinned backend so the
// fresh mirror seeds from live state.
func (g *Gateway) reconnect(ctx context.Context, sess *gwSession, req *server.Request) *server.Response {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	be := sess.backend
	resp, err := g.forward(ctx, be, req)
	if err != nil {
		return coded(req.ID, protocol.CodeFailover,
			fmt.Sprintf("gateway: backend %s unreachable: %v", be.name, err))
	}
	if resp.ErrorCode == "" && resp.Epoch != sess.backendEpoch {
		sess.backendEpoch = resp.Epoch
		sess.epoch++
	}
	resp.Epoch = sess.epoch
	if resp.Board != "" {
		resp.Board = be.name + "/" + resp.Board
	}
	return resp
}

// sessionOp proxies one non-connect op: ownership check, token-bucket
// admission, forward under the session lock, journal the ack.
func (g *Gateway) sessionOp(ctx context.Context, op *protocol.Op, req *server.Request) *server.Response {
	g.mu.Lock()
	sess := g.sessions[req.Session]
	if sess == nil {
		g.mu.Unlock()
		return coded(req.ID, protocol.CodeNoDevice,
			fmt.Sprintf("gateway: no session %q", req.Session))
	}
	if sess.tenant != req.Tenant {
		g.mu.Unlock()
		return coded(req.ID, protocol.CodeUnauthorized,
			fmt.Sprintf("gateway: session %q belongs to another tenant", req.Session))
	}
	if t := g.tenants[req.Tenant]; t != nil {
		if t.bucket != nil && !t.bucket.take(time.Now()) {
			t.rejectedOps++
			g.mu.Unlock()
			return coded(req.ID, protocol.CodeQuota,
				fmt.Sprintf("gateway: tenant %q over its ops/s quota", t.name))
		}
		t.admittedOps++
	}
	g.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	be := sess.backend
	resp, err := g.forward(ctx, be, req)
	if err != nil {
		return coded(req.ID, protocol.CodeFailover,
			fmt.Sprintf("gateway: backend %s unreachable: %v", be.name, err))
	}
	if resp.ErrorCode == "" {
		if op.Mutating {
			// The ack is durable on the backend; capture it so a drain or
			// ejection can reproduce it elsewhere. The journal owns a
			// detached copy (the server allocates a fresh Request per wire
			// message, so aliasing its slices is safe).
			jr := *req
			jr.ID, jr.TimeoutMillis, jr.Tenant = 0, 0, ""
			sess.log.record(&jr)
		}
		if resp.Epoch != sess.backendEpoch {
			// The backend failed over internally (board swap): its epoch
			// moved, so the client's frame chain broke too.
			sess.backendEpoch = resp.Epoch
			sess.epoch++
		}
	}
	resp.Epoch = sess.epoch
	if resp.Board != "" {
		resp.Board = be.name + "/" + resp.Board
	}
	return resp
}

// drainOp is the gw_drain admin verb: Session names the backend to drain.
// Admin-tenant only (any caller when auth is off).
func (g *Gateway) drainOp(ctx context.Context, req *server.Request) *server.Response {
	g.mu.Lock()
	t := g.tenants[req.Tenant]
	authed := len(g.tenants) == 0 || (t != nil && t.admin)
	g.mu.Unlock()
	if !authed {
		return coded(req.ID, protocol.CodeUnauthorized,
			"gateway: gw_drain requires an admin tenant")
	}
	moved, err := g.Drain(ctx, req.Session)
	resp := &server.Response{ID: req.ID, Devices: moved}
	if err != nil {
		resp.ErrorCode = protocol.CodeInternal
		if errors.Is(err, errUnknownBackend) {
			resp.ErrorCode = protocol.CodeBadRequest
		}
		resp.Err = err.Error()
	}
	return resp
}

var errUnknownBackend = errors.New("gateway: unknown backend")

// Drain marks a backend draining (no new sessions placed on it) and moves
// every session pinned to it onto healthy backends by journal handoff,
// returning the moved session names. Acked state is never lost: each
// session's journal replays onto the target before the pin swaps, and the
// client-visible epoch bump makes mirrors resync.
func (g *Gateway) Drain(ctx context.Context, name string) ([]string, error) {
	g.mu.Lock()
	be := g.backends[name]
	if be == nil {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w %q", errUnknownBackend, name)
	}
	be.draining = true
	affected := g.pinnedTo(be)
	g.mu.Unlock()

	var moved []string
	var firstErr error
	for _, sess := range affected {
		if err := g.relocate(ctx, sess); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved = append(moved, sess.name)
	}
	g.mu.Lock()
	g.drains++
	g.mu.Unlock()
	return moved, firstErr
}

// pinnedTo snapshots the sessions currently pinned to a backend in name
// order. Callers hold g.mu.
func (g *Gateway) pinnedTo(be *backend) []*gwSession {
	var out []*gwSession
	for _, s := range g.sessions {
		if s.backend == be {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// relocate moves one session to a healthy backend: fresh connect with the
// session's placement identity, replay the acked-op journal, then swap the
// pin and bump the client-visible epoch. The session lock is held
// throughout, so client ops queue behind the move instead of racing it.
func (g *Gateway) relocate(ctx context.Context, sess *gwSession) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	g.mu.Lock()
	pool, _ := g.poolFor(sess.class)
	// The pool excludes draining and unhealthy backends, which covers the
	// backend being left; filter defensively anyway.
	dst := pool[:0]
	for _, be := range pool {
		if be != sess.backend {
			dst = append(dst, be)
		}
	}
	if len(dst) == 0 {
		g.handoffFails++
		g.mu.Unlock()
		return fmt.Errorf("gateway: no healthy backend to receive session %q (class %q)",
			sess.name, sess.class)
	}
	target := dst[int(sess.key%uint64(len(dst)))]
	g.mu.Unlock()

	cr := *sess.connectReq
	resp, err := g.forward(ctx, target, &cr)
	if err == nil && resp.ErrorCode != "" {
		err = fmt.Errorf("gateway: target connect rejected: %s (%s)", resp.Err, resp.ErrorCode)
	}
	if err != nil {
		g.mu.Lock()
		g.handoffFails++
		g.mu.Unlock()
		return fmt.Errorf("gateway: handoff of %q to %s failed: %w", sess.name, target.name, err)
	}
	lastEpoch := resp.Epoch
	replayed, skipped := 0, 0
	var applied []*server.Request // successfully replayed, for rollback
	for _, e := range sess.log.replayList() {
		rr := *e
		resp, err := g.forward(ctx, target, &rr)
		if err == nil && resp.ErrorCode != "" {
			err = fmt.Errorf("%s (%s)", resp.Err, resp.ErrorCode)
		}
		if err != nil {
			// The journal can run behind the backend: an op that times out at
			// the edge may still apply (the ack was lost, so it was never
			// journaled), after which the client's acked unroute of that net
			// is journaled with no creation before it. Replaying that unroute
			// fails "not routed" — but its postcondition (net absent) already
			// holds on the fresh target, so skipping it loses nothing the
			// client was ever acked. Failed route-side replays, by contrast,
			// WOULD lose acked state and still abort the handoff.
			if rr.Op == "unroute" || rr.Op == "reverse_unroute" {
				skipped++
				continue
			}
			g.mu.Lock()
			g.handoffFails++
			g.mu.Unlock()
			// Best-effort rollback: without it the partial replay leaves
			// orphan nets squatting on the target board's wires, so a retry
			// of the drain would collide with the previous attempt's debris.
			// The session stays pinned to its old backend, which still holds
			// the authoritative state.
			g.rollback(ctx, target, applied)
			return fmt.Errorf("gateway: replaying %q op %d (%s) on %s: %w",
				sess.name, replayed, rr.Op, target.name, err)
		}
		if resp.Epoch != 0 {
			lastEpoch = resp.Epoch
		}
		applied = append(applied, e)
		replayed++
	}
	g.mu.Lock()
	sess.backend.sessions--
	target.sessions++
	sess.backend = target
	g.handoffs++
	g.replayedOps += replayed
	g.replaySkips += skipped
	g.mu.Unlock()
	sess.backendEpoch = lastEpoch
	sess.epoch++ // the mirror chain broke at the move; clients resync
	return nil
}

// rollback undoes a partial journal replay on a handoff target: the
// net-creating entries that did apply are compensated with unroutes of
// their sources, newest first, freeing the wires they claimed. Best-effort
// by design — a compensating unroute of a net a later journal entry
// already removed fails "not routed" and is ignored, and placed cores are
// left in situ (there is no inverse op, and they hold no wires). Errors
// are swallowed: the target is a fresh session nothing depends on yet.
func (g *Gateway) rollback(ctx context.Context, target *backend, applied []*server.Request) {
	for i := len(applied) - 1; i >= 0; i-- {
		e := applied[i]
		var srcs []server.EndPointMsg
		switch e.Op {
		case "route":
			if e.Source != nil {
				srcs = append(srcs, *e.Source)
			}
		case "bus", "bus_batch":
			srcs = append(srcs, e.Sources...)
		case "batch":
			for _, n := range e.Nets {
				srcs = append(srcs, n.Source)
			}
		default: // unroute, reverse_unroute, core_new, core_replace
			continue
		}
		for j := len(srcs) - 1; j >= 0; j-- {
			src := srcs[j]
			ur := server.Request{Op: "unroute", Session: e.Session, Source: &src}
			_, _ = g.forward(ctx, target, &ur)
		}
	}
}

// probeLoop runs health probes on a fixed cadence until Shutdown.
func (g *Gateway) probeLoop(interval time.Duration) {
	defer close(g.probeDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
			g.ProbeAll(context.Background())
		}
	}
}

// ProbeAll health-checks every backend once: a statsz round trip (which
// rides the hello handshake on fresh connections). A failing probe ejects
// the backend from placement and relocates its sessions by journal handoff;
// a succeeding probe on an ejected backend readmits it.
func (g *Gateway) ProbeAll(ctx context.Context) {
	g.mu.Lock()
	backends := append([]*backend(nil), g.order...)
	g.mu.Unlock()
	for _, be := range backends {
		err := g.probe(ctx, be)
		g.mu.Lock()
		g.probes++
		if err != nil {
			g.probeFails++
			be.probeFails++
			wasHealthy := be.healthy
			be.healthy = false
			if wasHealthy {
				g.ejections++
			}
			sessions := g.pinnedTo(be)
			g.mu.Unlock()
			if wasHealthy {
				for _, sess := range sessions {
					// Best effort: a failed handoff leaves the session
					// pinned; the next probe round retries.
					_ = g.relocate(ctx, sess)
				}
			}
			continue
		}
		if !be.healthy {
			be.healthy = true
			g.readmits++
		}
		g.mu.Unlock()
	}
}

func (g *Gateway) probe(ctx context.Context, be *backend) error {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	c, err := g.conn(pctx, be)
	if err != nil {
		return err
	}
	if _, err := c.Stats(pctx); err != nil {
		c.Close()
		return err
	}
	g.putConn(be, c)
	return nil
}

// Sessions implements server.Fleet: the admitted logical session names.
func (g *Gateway) Sessions() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.sessions))
	for name := range g.sessions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats implements server.Fleet. The gateway has no boards of its own, so
// the fleet section stays empty; GatewayStats carries the edge counters.
func (g *Gateway) Stats() *protocol.FleetStatsMsg { return nil }

// GatewayStats implements server.GatewayStatser: the statsz edge section.
func (g *Gateway) GatewayStats() *protocol.GatewayStatsMsg {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := &protocol.GatewayStatsMsg{
		Backends: len(g.backends), Sessions: len(g.sessions),
		Probes: g.probes, ProbeFails: g.probeFails,
		Ejections: g.ejections, Readmits: g.readmits,
		Drains: g.drains, Handoffs: g.handoffs, HandoffFails: g.handoffFails,
		ReplayedOps: g.replayedOps, ReplaySkips: g.replaySkips,
		Tenants:     make(map[string]protocol.GatewayTenantMsg, len(g.tenants)),
		BackendsMap: make(map[string]protocol.GatewayBackendMsg, len(g.backends)),
	}
	for _, be := range g.order {
		if be.healthy && !be.draining {
			out.HealthyBackends++
		}
		if be.draining {
			out.DrainingBackends++
		}
		classes := make([]string, 0, len(be.classes))
		for cl := range be.classes {
			classes = append(classes, cl)
		}
		sort.Strings(classes)
		out.BackendsMap[be.name] = protocol.GatewayBackendMsg{
			Addr: be.addr, Classes: classes,
			Healthy: be.healthy, Draining: be.draining,
			Sessions: be.sessions, Ops: be.ops, Errors: be.errs,
			ProbeFails: be.probeFails,
		}
	}
	for name, t := range g.tenants {
		out.Tenants[name] = protocol.GatewayTenantMsg{
			Sessions: t.sessions, AdmittedOps: t.admittedOps,
			RejectedOps: t.rejectedOps, RejectedSessions: t.rejectedSessions,
		}
	}
	return out
}

// Shutdown implements server.Fleet: stop probing and drop pooled backend
// connections. The backends themselves are independent daemons and keep
// running — the gateway holds nothing durable on their behalf.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return nil
	}
	g.closing = true
	var conns []*client.Client
	for _, be := range g.backends {
		conns = append(conns, be.idle...)
		be.idle = nil
	}
	stop := g.probeStop
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-g.probeDone
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}
