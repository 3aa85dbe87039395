package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/workload"
)

// gateway_churn: every service tier. Two closed-loop client sessions, one
// connection each and pinned one per board, churn a fan-net working set
// through client -> TCP -> edge server -> gateway -> pooled client -> TCP ->
// backend server -> fleet coordinator -> worker -> ship hook -> XHWIF ->
// board. After the first cycle routes are exact-path replays, so the router
// is a small slice of an op and serialization, codec, the two TCP hops, the
// board push and the mirror apply do the rest.
const (
	gwOps        = 10000 // per repetition, across both sessions
	gwSessions   = 2
	gwNets       = 48
	gwFan        = 3
	gwRadius     = 6
	gwTraceEvery = 8 // a cycle traces every 8th net: reads ride beside writes

	gwClass  = "bench-class"
	gwTenant = "bench"
	gwToken  = "bench-token"
)

// gwNet is one net of a session's working set, in the forms the different
// depths of the stack take it.
type gwNet struct {
	pin   core.Pin
	eps   []core.EndPoint
	src   server.EndPointMsg
	sinks []server.EndPointMsg
}

// cycleOps is the op count of one churn cycle over a working set: route
// all, trace every gwTraceEvery'th, unroute all.
func cycleOps(nets int) int { return 2*nets + (nets+gwTraceEvery-1)/gwTraceEvery }

// allCycles is drive's parity for recording every cycle.
const allCycles = -1

// target executes one session's ops at one depth of the service stack.
type target interface {
	route(n *gwNet) error
	trace(n *gwNet) (sinks int, err error)
	unroute(n *gwNet) error
}

// drive runs churn cycles of one working set against t, closed loop. Every
// op is timed and, with a recorder, becomes one span named spanName. parity
// 0 or 1 records only the even or only the odd cycles, so that traced and
// untraced ops alternate within one run and meet the same machine noise;
// allCycles records every one. after, when set, runs untimed after each op. The first op that fails ends the run;
// lost counts traced nets that came back short of sinks — acknowledged
// routes the system no longer holds.
func drive(t target, nets []gwNet, cycles int, rec *recorder, parity int, spanName string, firstID int32,
	after func(id int32) error, lat []float64) (out []float64, lost int, err error) {
	id := firstID
	cur := rec
	timed := func(fn func() error) error {
		s := cur.begin(spanName, id, -1)
		t0 := time.Now()
		err := fn()
		took := time.Since(t0)
		cur.end(s)
		lat = append(lat, float64(took.Nanoseconds())/1e3)
		if err == nil && after != nil {
			err = after(id)
		}
		id++
		return err
	}
	for c := 0; c < cycles; c++ {
		if cur = rec; parity != allCycles && c%2 != parity {
			cur = nil
		}
		for i := range nets {
			n := &nets[i]
			if err := timed(func() error { return t.route(n) }); err != nil {
				return lat, lost, err
			}
		}
		for i := 0; i < len(nets); i += gwTraceEvery {
			n := &nets[i]
			err := timed(func() error {
				sinks, err := t.trace(n)
				if err == nil && sinks != len(n.sinks) {
					lost++
				}
				return err
			})
			if err != nil {
				return lat, lost, err
			}
		}
		for i := range nets {
			n := &nets[i]
			if err := timed(func() error { return t.unroute(n) }); err != nil {
				return lat, lost, err
			}
		}
	}
	return lat, lost, nil
}

// routerTarget is depth 0: the script against a bare core.Router.
type routerTarget struct{ r *core.Router }

func (t routerTarget) route(n *gwNet) error {
	if len(n.eps) == 1 {
		return t.r.RouteNet(n.pin, n.eps[0])
	}
	return t.r.RouteFanout(n.pin, n.eps)
}

func (t routerTarget) trace(n *gwNet) (int, error) {
	net, err := t.r.Trace(n.pin)
	if err != nil {
		return 0, err
	}
	return len(net.Sinks), nil
}

func (t routerTarget) unroute(n *gwNet) error { return t.r.Unroute(n.pin) }

// exchange is one request with the response it got, kept for the codec and
// mirror-apply probes.
type exchange struct {
	req  *server.Request
	resp *server.Response
}

// submitFunc is the shape of Worker.Submit, Coordinator.Submit and
// Gateway.Submit.
type submitFunc func(context.Context, *server.Request) *server.Response

// submitTarget drives a Submit entry point directly.
type submitTarget struct {
	submit  submitFunc
	session string
	tenant  string
	keep    *[]exchange // non-nil: remember every exchange
}

func (t *submitTarget) do(req *server.Request) (*server.Response, error) {
	req.Session, req.Tenant = t.session, t.tenant
	resp := t.submit(context.Background(), req)
	if resp.Err != "" || resp.Busy {
		return nil, fmt.Errorf("%s: %s (%s)", req.Op, resp.Err, resp.ErrorCode)
	}
	if t.keep != nil {
		*t.keep = append(*t.keep, exchange{req, resp})
	}
	return resp, nil
}

func (t *submitTarget) route(n *gwNet) error {
	_, err := t.do(&server.Request{Op: "route", Source: &n.src, Sinks: n.sinks})
	return err
}

func (t *submitTarget) trace(n *gwNet) (int, error) {
	resp, err := t.do(&server.Request{Op: "trace", Source: &n.src})
	if err != nil {
		return 0, err
	}
	return len(resp.Net.Sinks), nil
}

func (t *submitTarget) unroute(n *gwNet) error {
	_, err := t.do(&server.Request{Op: "unroute", Source: &n.src})
	return err
}

// sessionTarget drives a client.Session: the way users reach the service.
type sessionTarget struct{ s *client.Session }

func (t sessionTarget) route(n *gwNet) error {
	return t.s.Route(context.Background(), n.src, n.sinks...)
}

func (t sessionTarget) trace(n *gwNet) (int, error) {
	net, err := t.s.Trace(context.Background(), n.src)
	if err != nil {
		return 0, err
	}
	return len(net.Sinks), nil
}

func (t sessionTarget) unroute(n *gwNet) error {
	return t.s.Unroute(context.Background(), n.src)
}

// countingConn counts the bytes a client connection moves.
type countingConn struct {
	net.Conn
	bytes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes += n
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes += n
	return n, err
}

// depth names how much of the service stack a script run goes through.
type depth int

const (
	dRouter   depth = iota // bare core.Router
	dWorker                // server.Worker.Submit on standalone workers
	dFleet                 // fleet.Coordinator.Submit
	dFleetTCP              // client.Client.Forward over TCP to the fleet-backed server
	dGateway               // gateway.Gateway.Submit
	dEdge                  // client.Session over TCP to the gateway edge: the workload itself
	dStatic                // client.Session over TCP to a static server; off the onion
)

// spanNames are the span each depth's ops are recorded under.
var spanNames = map[depth]string{
	dRouter: "core.router", dWorker: "server.submit", dFleet: "fleet.submit",
	dFleetTCP: "client.fleet", dGateway: "gateway.submit", dEdge: "client.edge",
	dStatic: "client.static",
}

// stack is the service stack built up to one depth, with one target per
// session. Router/server options are the product defaults throughout, and
// the fleet's modeled port time is 0: the modeled port is a sleep.
type stack struct {
	d       depth
	targets []target

	sessions []*jbits.Session // dRouter
	routers  []*core.Router
	probes   []*shipProbe
	workers  []*server.Worker // dWorker
	coord    *fleet.Coordinator
	backend  *server.Server
	gw       *gateway.Gateway
	edge     *server.Server
	static   *server.Server
	conns    []*countingConn
	clients  []*client.Client
	csess    []*client.Session
}

func sessionName(i int) string { return fmt.Sprintf("%s/s%d", gwClass, i) }

func buildStack(d depth) (s *stack, err error) {
	s = &stack{d: d}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	ctx := context.Background()
	switch d {
	case dRouter:
		for i := 0; i < gwSessions; i++ {
			js, err := jbits.NewSession(arch.NewVirtex(), devRows, devCols)
			if err != nil {
				return s, err
			}
			p, err := newShipProbe(js)
			if err != nil {
				return s, err
			}
			r := core.New(js.Dev)
			s.sessions, s.routers, s.probes = append(s.sessions, js), append(s.routers, r), append(s.probes, p)
			s.targets = append(s.targets, routerTarget{r})
		}
		return s, nil
	case dWorker:
		for i := 0; i < gwSessions; i++ {
			w, err := server.NewWorker(server.WorkerConfig{Name: sessionName(i), Rows: devRows, Cols: devCols})
			if err != nil {
				return s, err
			}
			s.workers = append(s.workers, w)
			s.targets = append(s.targets, &submitTarget{submit: w.Submit, session: sessionName(i)})
		}
		return s, nil
	case dStatic:
		s.static = server.NewServer()
		for i := 0; i < gwSessions; i++ {
			if err := s.static.AddDevice(sessionName(i), "virtex", devRows, devCols); err != nil {
				return s, err
			}
		}
		addr, err := s.static.Start("127.0.0.1:0")
		if err != nil {
			return s, err
		}
		return s, s.dialSessions(ctx, addr, "")
	}

	// Every remaining depth has the fleet at its bottom: 2 boards, no
	// spares, no background probes.
	s.coord, err = fleet.New(fleet.Config{Boards: gwSessions, Rows: devRows, Cols: devCols})
	if err != nil {
		return s, err
	}
	if d == dFleet {
		return s, s.submitSessions(ctx, func(int) submitFunc { return s.coord.Submit }, "")
	}
	s.backend = server.NewServer()
	s.backend.SetFleet(s.coord)
	backAddr, err := s.backend.Start("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	if d == dFleetTCP {
		// The raw round trip the gateway itself makes to a backend: no
		// Session and no mirror on this side, so that the gateway depth
		// above differs from this one by the gateway alone.
		for i := 0; i < gwSessions; i++ {
			c, err := client.Dial(ctx, backAddr)
			if err != nil {
				return s, err
			}
			s.clients = append(s.clients, c)
		}
		forward := func(i int) submitFunc {
			return func(ctx context.Context, req *server.Request) *server.Response {
				resp, err := s.clients[i].Forward(ctx, req)
				if err != nil {
					return &server.Response{Err: err.Error()}
				}
				return resp
			}
		}
		return s, s.submitSessions(ctx, forward, "")
	}
	s.gw, err = gateway.New(gateway.Config{
		Backends:            []gateway.BackendConfig{{Name: "be0", Addr: backAddr, Classes: []string{gwClass}}},
		Tenants:             []gateway.TenantConfig{{Name: gwTenant, Token: gwToken}},
		ProbeIntervalMillis: -1,
	})
	if err != nil {
		return s, err
	}
	if d == dGateway {
		return s, s.submitSessions(ctx, func(int) submitFunc { return s.gw.Submit }, gwTenant)
	}
	s.edge = server.NewServer(server.WithAuth(s.gw.Authenticate))
	s.edge.SetFleet(s.gw)
	edgeAddr, err := s.edge.Start("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	return s, s.dialSessions(ctx, edgeAddr, gwToken)
}

// submitSessions opens the sessions through session i's Submit-shaped entry
// point, pinned one per board by placement key.
func (s *stack) submitSessions(ctx context.Context, entry func(i int) submitFunc, tenant string) error {
	for i := 0; i < gwSessions; i++ {
		key := uint64(i)
		submit := entry(i)
		resp := submit(ctx, &server.Request{Op: "connect", Session: sessionName(i), Key: &key, Tenant: tenant})
		if resp.Err != "" {
			return fmt.Errorf("connect %s: %s", sessionName(i), resp.Err)
		}
		s.targets = append(s.targets, &submitTarget{submit: submit, session: sessionName(i), tenant: tenant})
	}
	return nil
}

// dialSessions opens one counted connection and one session per session
// slot, pinned one per board by placement key.
func (s *stack) dialSessions(ctx context.Context, addr, token string) error {
	for i := 0; i < gwSessions; i++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		conn := &countingConn{Conn: raw}
		s.conns = append(s.conns, conn)
		c := client.NewClient(conn, client.WithToken(token))
		s.clients = append(s.clients, c)
		if err := c.Hello(ctx); err != nil {
			return err
		}
		cs, err := c.SessionWithKey(ctx, sessionName(i), uint64(i))
		if err != nil {
			return err
		}
		s.csess = append(s.csess, cs)
		s.targets = append(s.targets, sessionTarget{cs})
	}
	return nil
}

// close tears the stack down outermost first and waits for every goroutine
// it started.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.Close()
	}
	// A server shuts down the fleet or gateway attached to it.
	switch {
	case s.edge != nil:
		_ = s.edge.Shutdown(ctx)
	case s.gw != nil:
		_ = s.gw.Shutdown(ctx)
	}
	switch {
	case s.backend != nil:
		_ = s.backend.Shutdown(ctx)
	case s.coord != nil:
		_ = s.coord.Shutdown(ctx)
	}
	if s.static != nil {
		_ = s.static.Shutdown(ctx)
	}
	for _, w := range s.workers {
		w.Close()
		<-w.Done()
	}
	for _, p := range s.probes {
		p.close()
	}
}

// tally reads the stack's cumulative counters, whichever its depth keeps.
func (s *stack) tally() counts {
	n := counts{}
	addWorker := func(w server.SessionStatsMsg) {
		n["sinks"] += w.Routes
		n["pips_cleared"] += w.RipUps
		n["frames"] += w.FramesShipped
		n["bytes"] += w.BytesShipped
		n["nodes"] += w.NodesExplored
		n["cache_hits"] += w.CacheHits
		n["cache_misses"] += w.CacheMisses
		n["replay_fails"] += w.ReplayFails
	}
	for _, r := range s.routers {
		st := r.Stats()
		n["sinks"] += st.Routes
		n["pips"] += st.PIPsSet
		n["pips_cleared"] += st.PIPsCleared
		n["nodes"] += st.NodesExplored
		n["cache_hits"] += st.CacheHits
		n["cache_misses"] += st.CacheMisses
		n["replay_fails"] += st.ReplayFails
	}
	for _, w := range s.workers {
		addWorker(w.StatsSnapshot())
	}
	if s.coord != nil {
		fs := s.coord.Stats()
		n["failovers"] = fs.Failovers
		for _, slot := range fs.Slots {
			addWorker(slot.Worker)
			n["hw_frames"] += slot.HW.FramesWritten
		}
	}
	if s.gw != nil {
		t := s.gw.GatewayStats().Tenants[gwTenant]
		n["admitted"], n["rejected"] = t.AdmittedOps, t.RejectedOps
	}
	for _, c := range s.conns {
		n["wire_bytes"] += c.bytes
	}
	return n
}

// sub returns a minus b, key by key.
func (a counts) sub(b counts) counts {
	out := counts{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// run drives every session's script concurrently, one goroutine per session
// as one closed-loop client each, and returns the repetition. With a
// recorder each session records into its own and the spans are merged;
// parity is drive's.
func (s *stack) run(sets [][]gwNet, cycles int, rec *recorder, parity int) (*repStats, error) {
	perSession := cycles * cycleOps(len(sets[0]))
	type result struct {
		lat  []float64
		lost int
		err  error
		rec  *recorder
	}
	res := make([]result, len(s.targets))
	before := s.tally()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range s.targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			if rec != nil {
				r.rec = newRecorder(rec.epoch)
			}
			var after func(id int32) error
			if s.d == dRouter {
				after = s.afterRouterOp(i, r.rec)
			}
			r.lat, r.lost, r.err = drive(s.targets[i], sets[i], cycles, r.rec, parity, spanNames[s.d],
				int32(i*perSession), after, make([]float64, 0, perSession))
		}(i)
	}
	wg.Wait()
	st := &repStats{wall: time.Since(start), streams: len(s.targets)}
	for i := range res {
		if res[i].err != nil {
			return nil, fmt.Errorf("session %d: %w", i, res[i].err)
		}
		if res[i].lost != 0 {
			return nil, fmt.Errorf("session %d: %d acknowledged nets came back short on Trace", i, res[i].lost)
		}
		st.lat = append(st.lat, res[i].lat...)
		if rec != nil {
			rec.merge(res[i].rec)
		}
	}
	st.n = s.tally().sub(before)
	st.n["ops"] = len(st.lat)
	if _, ok := st.n["pips"]; !ok {
		// Service tiers report cleared PIPs only; every net a cycle routes
		// it also unroutes, so the two agree over whole cycles.
		st.n["pips"] = st.n["pips_cleared"]
	}
	for _, p := range s.probes {
		st.n["bytes"] += p.takeBytes()
	}
	return st, nil
}

// afterRouterOp is what a bare-Router run does between ops: account the
// op's dirty frames, through the shipping probes when traced.
func (s *stack) afterRouterOp(i int, rec *recorder) func(id int32) error {
	dev := s.sessions[i].Dev
	probe := s.probes[i]
	return func(id int32) error {
		if rec != nil {
			_, err := probe.ship(rec, id, -1)
			return err
		}
		dev.ClearDirty()
		return nil
	}
}

// gatewayChurn is the workload: the stack at full depth plus the seeded
// working sets.
type gatewayChurn struct {
	seed   int64
	cycles int
	sets   [][]gwNet
	main   *stack
	audit  time.Duration // how long verify's oracle audit of one readback took
}

func newGatewayChurn(seed int64, scale float64) *gatewayChurn {
	perSession := gwOps / gwSessions
	cycles := scaled(perSession/cycleOps(gwNets), scale)
	return &gatewayChurn{seed: seed, cycles: cycles}
}

func (w *gatewayChurn) ops() int { return gwSessions * w.cycles * cycleOps(gwNets) }

func (w *gatewayChurn) setup() error {
	gen := workload.New(w.seed, devRows, devCols)
	for i := 0; i < gwSessions; i++ {
		fans, err := gen.FanNets(gwNets, gwFan, gwRadius)
		if err != nil {
			return err
		}
		var set []gwNet
		for _, f := range fans {
			n := gwNet{pin: f.Src, src: client.Pin(f.Src)}
			for _, sp := range f.Sinks {
				n.eps = append(n.eps, sp)
				n.sinks = append(n.sinks, client.Pin(sp))
			}
			set = append(set, n)
		}
		w.sets = append(w.sets, set)
	}
	var err error
	w.main, err = buildStack(dEdge)
	return err
}

// reset has nothing to do: every cycle ends with its nets unrouted.
func (w *gatewayChurn) reset() error { return nil }

// rep runs the script at full depth; in the traced pass the even cycles
// are recorded.
func (w *gatewayChurn) rep(rec *recorder, _ []float64) (*repStats, error) {
	return w.main.run(w.sets, w.cycles, rec, 0)
}

// splitByTracing separates the latencies of a run that recorded the cycles
// of one parity into recorded and unrecorded ones. lat holds each session's
// ops in script order, one session after the other.
func splitByTracing(lat []float64, cycles, parity int) (traced, untraced []float64) {
	per := cycleOps(gwNets)
	for i, v := range lat {
		if (i%(cycles*per))/per%2 == parity {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	return traced, untraced
}

// verify is the service-tier gate. With every net of both working sets
// routed and acknowledged: each must come back whole on Trace (no lost
// acknowledged op), each session's mirror must be structurally clean and
// byte-equal to a board readback, the readback must pass the oracle against
// the session's claims, and the fleet's own probe of the board hardware
// must find nothing wrong and no failover may have happened.
func (w *gatewayChurn) verify() error {
	ctx := context.Background()
	for i, cs := range w.main.csess {
		t := sessionTarget{cs}
		var claims []oracle.Claim
		for k := range w.sets[i] {
			n := &w.sets[i][k]
			if err := t.route(n); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
			c := oracle.Claim{Source: oracle.Pin{Row: n.pin.Row, Col: n.pin.Col, W: n.pin.W}}
			for _, ep := range n.eps {
				p := ep.(core.Pin)
				c.Sinks = append(c.Sinks, oracle.Pin{Row: p.Row, Col: p.Col, W: p.W})
			}
			claims = append(claims, c)
		}
		for k := range w.sets[i] {
			n := &w.sets[i][k]
			sinks, err := t.trace(n)
			if err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
			if sinks != len(n.sinks) {
				return fmt.Errorf("session %d: lost acknowledged op: net %v traces %d of %d sinks", i, n.pin, sinks, len(n.sinks))
			}
		}
		if err := cs.VerifyMirror(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		back, err := cs.Readback(ctx)
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		mirror, err := cs.Mirror.FullConfig()
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		if !bytes.Equal(mirror, back) {
			return fmt.Errorf("session %d: mirror diverged from board readback", i)
		}
		t0 := time.Now()
		if err := oracle.Audit(cs.Mirror.A, back, claims, true); err != nil {
			return fmt.Errorf("session %d: oracle audit of readback: %w", i, err)
		}
		w.audit = time.Since(t0)
	}
	w.main.coord.ProbeAll(ctx)
	if fs := w.main.coord.Stats(); fs.ProbeFails != 0 || fs.Failovers != 0 {
		return fmt.Errorf("fleet: %d probe fails, %d failovers", fs.ProbeFails, fs.Failovers)
	}
	for i, cs := range w.main.csess {
		for k := range w.sets[i] {
			if err := (sessionTarget{cs}).unroute(&w.sets[i][k]); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
	}
	return nil
}

func (w *gatewayChurn) close() {
	if w.main != nil {
		w.main.close()
	}
}
