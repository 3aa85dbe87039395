package gateway

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/journal"
	"repro/internal/server/protocol"
)

// maxIdleConns bounds the per-backend pooled connection count; extra
// connections returned to a full pool are closed.
const maxIdleConns = 8

// backend is one fronted fleet as the gateway tracks it: its statsz entry
// (address, sorted classes, health and counters) and what statsz does not
// show. Mutable fields are guarded by Gateway.mu.
type backend struct {
	protocol.GatewayBackendMsg
	name string
	// j holds the sessions pinned here as the backend's routers export
	// them, kept from the deltas of the acknowledged ops the gateway
	// forwarded.
	j    *journal.Journal
	idle []*client.Client
}

func (b *backend) serves(class string) bool {
	return class == "" || slices.Contains(b.Classes, class)
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

// tenant is one configured tenant's live admission state; its counters are
// its statsz entry (guarded by Gateway.mu).
type tenant struct {
	protocol.GatewayTenantMsg
	name       string
	admin      bool
	sessionCap int
	bucket     *bucket // nil = unlimited ops/s
}

// gwSession is one logical session's pin: which backend serves it and the
// epochs on both sides of the gateway; its backend's journal holds what
// moves it. sess.mu serializes client ops against relocation; the pin and
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

	board, boardName string // the backend board last seen and its name here
}

// stamp turns a backend response into the client's: a moved backend epoch
// (an internal failover broke the client's frame chain too) bumps the
// client-visible one, and the board is named under its backend (a name
// built once per backend board, not per op).
func (s *gwSession) stamp(resp *protocol.Response) *protocol.Response {
	if resp.ErrorCode == protocol.CodeOK && resp.Epoch != s.backendEpoch {
		s.backendEpoch = resp.Epoch
		s.epoch++
	}
	resp.Epoch = s.epoch
	if resp.Board != "" {
		if resp.Board != s.board {
			s.board, s.boardName = resp.Board, s.backend.name+"/"+resp.Board
		}
		resp.Board = s.boardName
	}
	return resp
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
	// stats holds the edge's statsz counters; GatewayStats fills in the
	// counts and the per-tenant and per-backend sections.
	stats protocol.GatewayStatsMsg

	probes *server.Loop // background health probes; nil when off
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
		classes := append([]string{}, bc.Classes...)
		slices.Sort(classes)
		be := &backend{name: bc.Name, j: journal.New(), GatewayBackendMsg: protocol.GatewayBackendMsg{
			Addr: bc.Addr, Classes: slices.Compact(classes), Healthy: true}}
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
	if cfg.ProbeIntervalMillis > 0 {
		g.probes = server.StartLoop(time.Duration(cfg.ProbeIntervalMillis)*time.Millisecond,
			func(ctx context.Context) bool { g.ProbeAll(ctx); return true },
			func() { g.mu.Lock(); g.stats.ProbeFails++; g.mu.Unlock() }) // a tick that panicked
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
		if be.Healthy && !be.Draining {
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
	return client.Dial(ctx, be.Addr, client.WithDelta())
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
func (g *Gateway) forward(ctx context.Context, be *backend, req *protocol.Request) (*protocol.Response, error) {
	c, err := g.conn(ctx, be)
	if err != nil {
		g.mu.Lock()
		be.Errors++
		g.mu.Unlock()
		return nil, err
	}
	fwd := *req
	fwd.Tenant = ""
	resp, err := c.Forward(ctx, &fwd)
	g.mu.Lock()
	be.Ops++
	if err != nil {
		be.Errors++
		g.mu.Unlock()
		c.Close()
		return nil, err
	}
	g.mu.Unlock()
	g.putConn(be, c)
	return resp, nil
}

func coded(id uint64, code protocol.Code, msg string) *protocol.Response {
	return &protocol.Response{ID: id, ErrorCode: code, Err: msg}
}

// Submit implements server.Fleet: every session and admin request lands
// here, and is rejected before it is forwarded anywhere if the op table
// has no row for it.
func (g *Gateway) Submit(ctx context.Context, req *protocol.Request) *protocol.Response {
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
func (g *Gateway) connect(ctx context.Context, req *protocol.Request) *protocol.Response {
	class := classOf(req.Session, g.cfg.DefaultClass)
	g.mu.Lock()
	if _, ok := g.sessions[req.Session]; ok {
		// A client re-dialing an open session: the connect runs on the pinned
		// backend, so the fresh mirror seeds from live state.
		g.mu.Unlock()
		return g.sessionOp(ctx, req.Row(), req)
	}
	t := g.tenants[req.Tenant]
	if t != nil && t.sessionCap > 0 && t.Sessions >= t.sessionCap {
		t.RejectedSessions++
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
	be.Sessions++
	if t != nil {
		t.Sessions++
	}
	g.mu.Unlock()
	defer sess.mu.Unlock()

	resp, err := g.forward(ctx, be, req)
	if err != nil || resp.ErrorCode != protocol.CodeOK {
		g.mu.Lock()
		delete(g.sessions, req.Session)
		be.Sessions--
		if t != nil {
			t.Sessions--
		}
		g.mu.Unlock()
		if err != nil {
			return coded(req.ID, protocol.CodeFailover,
				fmt.Sprintf("gateway: backend %s unreachable: %v", be.name, err))
		}
		return resp
	}
	sess.backendEpoch = resp.Epoch
	return sess.stamp(resp)
}

// sessionOp proxies one op on an open session: ownership check, token-bucket
// admission (a re-dial's connect is not an op: it takes no token and is not
// counted), forward under the session lock, apply the ack's delta to the
// backend's journal.
func (g *Gateway) sessionOp(ctx context.Context, op *protocol.Op, req *protocol.Request) *protocol.Response {
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
	if t := g.tenants[req.Tenant]; t != nil && op.Byte != protocol.OpConnect {
		if t.bucket != nil && !t.bucket.take(time.Now()) {
			t.RejectedOps++
			g.mu.Unlock()
			return coded(req.ID, protocol.CodeQuota,
				fmt.Sprintf("gateway: tenant %q over its ops/s quota", t.name))
		}
		t.AdmittedOps++
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
	if resp.ErrorCode == protocol.CodeOK && op.Mutating {
		_ = be.j.Apply(resp.Delta) // Forward detached it: the journal may keep it
		resp.Delta = nil
	}
	return sess.stamp(resp)
}

// drainOp is the gw_drain admin verb: Session names the backend to drain.
// Admin-tenant only (any caller when auth is off).
func (g *Gateway) drainOp(ctx context.Context, req *protocol.Request) *protocol.Response {
	g.mu.Lock()
	t := g.tenants[req.Tenant]
	authed := len(g.tenants) == 0 || (t != nil && t.admin)
	g.mu.Unlock()
	if !authed {
		return coded(req.ID, protocol.CodeUnauthorized,
			"gateway: gw_drain requires an admin tenant")
	}
	moved, err := g.Drain(ctx, req.Session)
	resp := &protocol.Response{ID: req.ID, Devices: moved}
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
// every session pinned to it onto healthy backends, returning the moved
// session names. A session's pin swaps only once its state is on the
// target; the client-visible epoch bump makes mirrors resync.
func (g *Gateway) Drain(ctx context.Context, name string) ([]string, error) {
	g.mu.Lock()
	be := g.backends[name]
	if be == nil {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w %q", errUnknownBackend, name)
	}
	be.Draining = true
	affected := g.pinnedTo(be)
	g.mu.Unlock()

	var moved []string
	var firstErr error
	for _, sess := range affected {
		ok, err := g.relocate(ctx, sess)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			moved = append(moved, sess.name)
		}
	}
	g.mu.Lock()
	g.stats.Drains++
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

// relocate moves one session to a healthy backend in two round trips: a
// connect with the session's placement identity, then one session_import of
// the session's form from its backend's journal, which places it all or
// nothing — a failed move leaves nothing on the target. Then it swaps the
// pin and bumps the client-visible epoch. The session lock is held
// throughout, so client ops queue behind the move instead of racing it. A
// session that is gone by the time the lock is taken (its connect failed)
// is skipped; moved reports whether this one moved.
func (g *Gateway) relocate(ctx context.Context, sess *gwSession) (moved bool, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	g.mu.Lock()
	if g.sessions[sess.name] != sess {
		g.mu.Unlock()
		return false, nil
	}
	pool, _ := g.poolFor(sess.class)
	// A readmit may have put the backend being left back in the pool.
	dst := slices.DeleteFunc(pool, func(be *backend) bool { return be == sess.backend })
	if len(dst) == 0 {
		g.stats.HandoffFails++
		g.mu.Unlock()
		return false, fmt.Errorf("gateway: no healthy backend to receive session %q (class %q)",
			sess.name, sess.class)
	}
	target, src := dst[int(sess.key%uint64(len(dst)))], sess.backend
	g.mu.Unlock()

	// The connect carries the session's key, the connect's own or its
	// default, so the target places it on the slot the first connect did.
	form, live := src.j.Form(sess.name)
	var resp *protocol.Response
	for _, req := range []*protocol.Request{{Op: "connect", Session: sess.name, Key: &sess.key},
		{Op: "session_import", Session: sess.name, Form: form}} {
		if err == nil {
			resp, err = g.forward(ctx, target, req)
		}
		if err == nil && resp.ErrorCode != protocol.CodeOK {
			err = fmt.Errorf("%s (%s)", resp.Err, resp.ErrorCode)
		}
		if err != nil { // the session stays where it was
			g.mu.Lock()
			g.stats.HandoffFails++
			g.mu.Unlock()
			return false, fmt.Errorf("gateway: handoff of %q to %s failed at %s: %w", sess.name, target.name, req.Op, err)
		}
	}
	// The import's delta starts by dropping whatever the target journal
	// held of the session, then lists it as the target now holds it.
	_ = target.j.Apply(resp.Delta)
	src.j.Drop(sess.name)
	g.mu.Lock()
	src.Sessions--
	target.Sessions++
	sess.backend, sess.board = target, "" // the board's name here changes with its backend
	g.stats.Handoffs++
	g.stats.RestoredNets += live
	g.mu.Unlock()
	sess.backendEpoch = resp.Epoch
	sess.epoch++ // the mirror chain broke at the move; clients resync
	return true, nil
}

// ProbeAll health-checks every backend once: a statsz round trip (which
// rides the hello on fresh connections). A failing probe ejects
// the backend from placement and relocates the sessions still pinned to it,
// each handoff bounded by server.ProbeTimeout — a failed or cut-off handoff leaves
// its session pinned, so the next round retries it; a succeeding probe on an
// ejected backend readmits it.
func (g *Gateway) ProbeAll(ctx context.Context) {
	g.mu.Lock()
	backends := append([]*backend(nil), g.order...)
	g.mu.Unlock()
	for _, be := range backends {
		err := g.probe(ctx, be)
		if errors.Is(ctx.Err(), context.Canceled) {
			return // stopped mid-round: the probe learned nothing
		}
		g.mu.Lock()
		g.stats.Probes++
		if err != nil {
			g.stats.ProbeFails++
			be.ProbeFails++
			if be.Healthy {
				be.Healthy = false
				g.stats.Ejections++
			}
			sessions := g.pinnedTo(be)
			g.mu.Unlock()
			for _, sess := range sessions {
				hctx, cancel := context.WithTimeout(ctx, server.ProbeTimeout)
				_, _ = g.relocate(hctx, sess)
				cancel()
			}
			continue
		}
		if !be.Healthy {
			be.Healthy = true
			g.stats.Readmits++
		}
		g.mu.Unlock()
	}
}

func (g *Gateway) probe(ctx context.Context, be *backend) error {
	pctx, cancel := context.WithTimeout(ctx, server.ProbeTimeout)
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
	out := g.stats
	out.Backends, out.Sessions = len(g.backends), len(g.sessions)
	out.Tenants = make(map[string]protocol.GatewayTenantMsg, len(g.tenants))
	out.BackendsMap = make(map[string]protocol.GatewayBackendMsg, len(g.backends))
	for _, be := range g.order {
		if be.Healthy && !be.Draining {
			out.HealthyBackends++
		}
		if be.Draining {
			out.DrainingBackends++
		}
		out.BackendsMap[be.name] = be.GatewayBackendMsg
	}
	for name, t := range g.tenants {
		out.Tenants[name] = t.GatewayTenantMsg
	}
	return &out
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
	for _, be := range g.backends {
		for _, c := range be.idle {
			c.Close()
		}
		be.idle = nil
	}
	g.mu.Unlock()
	g.probes.Stop()
	return nil
}
