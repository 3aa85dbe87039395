package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/jbits"
	"repro/internal/server/protocol"
)

// task is one queued request plus its reply channel. Exactly one of req or
// fn is set: fn tasks run an arbitrary closure on the worker goroutine
// (health probes, failover restores) with exclusive access to the router.
type task struct {
	ctx  context.Context
	req  *Request
	fn   func(*core.Router, *jbits.Session) error
	resp chan *Response
}

// coreKey names a core on a worker: a core name is unique per owner, so
// sessions sharing a slot each resolve their own.
type coreKey struct {
	owner uint8
	name  string
}

// coreEntry tracks one named core instance living on a worker's device.
type coreEntry struct {
	c      cores.Core
	groups []string         // port groups the replace flow reconnects
	msg    protocol.CoreMsg // current description: the core_new's, replaces folded in
	owner  uint8
	stamp  uint64 // creation order
}

// WorkerConfig describes one device-backed routing worker.
type WorkerConfig struct {
	Name string
	Arch string // "" or "virtex", or "kestrel"
	Rows int
	Cols int
	Opts Options

	// ShipHook, when set, is called on the worker goroutine with every
	// mutating op's dirty-frame stream before the op is acknowledged —
	// fleet boards push it to their hardware over the XHWIF link here. An
	// error fails the op with CodeFailover and leaves the dirty set
	// intact, so nothing is acknowledged that the board did not accept.
	ShipHook func(stream []byte, frames int) error

	// JournalHook, when set, is called on the worker goroutine after each
	// acknowledged mutating op with what it (and any failed or unshipped op
	// since the last call) changed in the sessions' cores and records, as v3
	// delta entries — the fleet coordinator's failover journal. Applied in
	// call order the deltas add up to every owner's form (see Export). The
	// hook may keep the slice; nothing writes into it again.
	JournalHook func(delta []byte)
}

// Worker wraps one named device: a JBits session, a JRoute router, named
// core instances, and the single goroutine that owns them all. Requests are
// serialized through the bounded queue; everything behind it is therefore
// single-threaded and needs no locks (metrics excepted). It serves both the
// daemon's static per-device sessions and the fleet's boards.
type Worker struct {
	cfg WorkerConfig

	queue chan task
	done  chan struct{} // closed when the worker has drained and exited

	js     *jbits.Session
	router *core.Router
	cores  map[coreKey]*coreEntry
	m      *sessionMetrics

	// Each session a request names owns what its ops make: a slot-local
	// index the router stamps on records (Router.SetOwner), names[index]
	// its session name; 0 is no session's.
	owners map[string]uint8
	names  []string
	cur    uint8 // owner of the op in flight
	stamp  uint64
	// Delta bookkeeping (see delta): whether the router logs changes, the
	// cores the op in flight made or changed, the entries held for owners
	// other than the one whose response carries a delta, and scratch.
	deltaOn bool
	touched []*coreEntry
	dropped []uint8
	mixed   bool
	pending map[uint8][]byte
	ports   map[*core.Port]protocol.PortRefMsg
	eps     []core.EndPoint // the op's endpoints, which the router copies
	// quarantined, once set, is the answer to every task: an op panicked,
	// so the router and device behind this worker are in a state nobody
	// vouches for.
	quarantined atomic.Pointer[string]
}

// NewWorker creates a worker and starts its goroutine.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	a, err := arch.ByName(cfg.Arch)
	if err != nil {
		return nil, err
	}
	js, err := jbits.NewSession(a, cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	queueDepth := cfg.Opts.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 64
	}
	w := &Worker{
		cfg:   cfg,
		queue: make(chan task, queueDepth),
		done:  make(chan struct{}),
		js:    js,
		router: core.New(js.Dev,
			core.WithParallelism(cfg.Opts.Parallelism),
			core.WithParanoidVerify(cfg.Opts.ParanoidVerify)),
		cores:   make(map[coreKey]*coreEntry),
		m:       newSessionMetrics(),
		owners:  make(map[string]uint8),
		names:   []string{""},
		pending: make(map[uint8][]byte),
		ports:   make(map[*core.Port]protocol.PortRefMsg),
	}
	go w.run()
	return w, nil
}

// Name returns the worker's device name.
func (w *Worker) Name() string { return w.cfg.Name }

// StatsSnapshot returns the worker's session counters.
func (w *Worker) StatsSnapshot() SessionStatsMsg { return w.m.snapshot(len(w.queue)) }

// Quarantined reports whether an op panicked on the worker, so that it
// answers every later task with CodeInternal without running it.
func (w *Worker) Quarantined() bool { return w.quarantined.Load() != nil }

// Close closes the request queue. Callers must guarantee no Submit or Do is
// in flight or will follow (the daemon closes only after every connection
// handler has exited). Wait on Done for the drain to finish.
func (w *Worker) Close() { close(w.queue) }

// Done is closed when the worker goroutine has drained its queue and
// exited.
func (w *Worker) Done() <-chan struct{} { return w.done }

// run is the worker loop: it owns the router and drains the queue until
// the queue is closed (shutdown), answering every remaining task. Tasks
// whose context died while they were queued are rejected with the typed
// cancellation code instead of executing late.
func (w *Worker) run() {
	defer close(w.done)
	for t := range w.queue {
		if t.ctx != nil && t.ctx.Err() != nil {
			t.resp <- ctxErrResponse(t.ctx, reqID(t.req))
			continue
		}
		t.resp <- w.serve(t)
	}
}

// serve executes one task. A panic in it is this session's fault alone: it
// is recovered here, on the goroutine every other session's worker does not
// share, answered as CodeInternal, and the session is quarantined — every
// later task gets the same answer without touching the router — while the
// queue keeps draining, so Close and Done work as for a healthy worker.
func (w *Worker) serve(t task) (resp *Response) {
	if q := w.quarantined.Load(); q != nil {
		return &Response{Err: *q, ErrorCode: protocol.CodeInternal}
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			q := fmt.Sprintf("server: session %s quarantined: an op panicked: %v", w.cfg.Name, p)
			w.quarantined.Store(&q)
			resp = &Response{Err: q, ErrorCode: protocol.CodeInternal}
			if t.req != nil {
				w.m.observe(t.req.Op, time.Since(start), true)
			}
		}
	}()
	if t.fn != nil {
		resp = &Response{}
		if err := t.fn(w.router, w.js); err != nil {
			resp.Err = err.Error()
			resp.ErrorCode = protocol.CodeInternal
		}
		return resp
	}
	resp = w.handle(t.req)
	w.m.observe(t.req.Op, time.Since(start), resp.Err != "")
	return resp
}

func reqID(req *Request) uint64 {
	if req == nil {
		return 0
	}
	return req.ID
}

// ctxErrResponse maps a dead context to its typed wire error.
func ctxErrResponse(ctx context.Context, id uint64) *Response {
	code := protocol.CodeCanceled
	msg := "server: request canceled while queued"
	if ctx.Err() == context.DeadlineExceeded {
		code = protocol.CodeDeadline
		msg = "server: request deadline expired while queued"
	}
	return &Response{ID: id, Err: msg, ErrorCode: code}
}

// Submit runs a request on the worker, with backpressure (see enqueue).
func (w *Worker) Submit(ctx context.Context, req *Request) *Response {
	return w.enqueue(task{ctx: ctx, req: req})
}

// Do runs fn on the worker goroutine with exclusive access to the router
// and JBits session, under the same queue (and therefore the same
// serialization and backpressure) as requests. Fleet health probes and
// failover restores run through here.
func (w *Worker) Do(ctx context.Context, fn func(r *core.Router, js *jbits.Session) error) error {
	resp := w.enqueue(task{ctx: ctx, fn: fn})
	switch {
	case resp.ErrorCode == protocol.CodeCanceled || resp.ErrorCode == protocol.CodeDeadline:
		return ctx.Err()
	case resp.Err != "":
		return fmt.Errorf("%s", resp.Err)
	}
	return nil
}

// replies recycles reply channels. A channel goes back only once its
// answer has been received: one a canceled caller walked away from may
// still get the worker's send.
var replies = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// enqueue queues t and waits for its answer. The wait for a queue slot is
// bounded by both 5 s (busy response, CodeBusy) and the task's context
// (typed CodeCanceled / CodeDeadline response) — a caller with a deadline
// never waits past it, and a canceled caller's op is rejected rather than
// executed late. A queue with room takes the task at once; only a full one
// arms the timer.
func (w *Worker) enqueue(t task) *Response {
	id := reqID(t.req)
	t.resp = replies.Get().(chan *Response)
	select {
	case w.queue <- t:
	default:
		timer := time.NewTimer(5 * time.Second)
		defer timer.Stop()
		select {
		case w.queue <- t:
		case <-t.ctx.Done():
			replies.Put(t.resp)
			return ctxErrResponse(t.ctx, id)
		case <-timer.C:
			replies.Put(t.resp)
			return &Response{ID: id, Busy: true, ErrorCode: protocol.CodeBusy,
				Err: fmt.Sprintf("server: session %s queue full (backpressure)", w.cfg.Name)}
		}
	}
	select {
	case resp := <-t.resp:
		replies.Put(t.resp)
		resp.ID = id
		return resp
	case <-t.ctx.Done():
		// The worker will see the dead context and skip the op (or has
		// already executed it; its buffered response is dropped).
		return ctxErrResponse(t.ctx, id)
	}
}

// handle executes one request on the worker goroutine.
func (w *Worker) handle(req *Request) *Response {
	op := req.Row()
	if op == nil {
		return protocol.UnknownOp(req)
	}
	resp := &Response{ID: req.ID}
	if op.Scope == protocol.ScopeSession {
		o, err := w.ownerOf(req.Session)
		if err != nil {
			return &Response{ID: req.ID, Err: err.Error(), ErrorCode: protocol.CodeAdmission}
		}
		w.cur = o
		w.router.SetOwner(o)
	}
	err := w.dispatch(op, req, resp)
	if err != nil {
		resp.Err = err.Error()
		if resp.ErrorCode == protocol.CodeOK {
			resp.ErrorCode = protocol.CodeRoute
		}
	}
	w.m.noteRouter(w.router.Stats(), w.router.ConnectionCount())
	if err == nil && op.Mutating {
		if ferr := w.shipDirty(resp); ferr != nil {
			resp.Err = ferr.Error()
		} else if w.cfg.JournalHook != nil || req.WantDelta {
			d := w.delta()
			if w.cfg.JournalHook != nil {
				w.cfg.JournalHook(d)
			}
			resp.Delta = w.deliver(d, req.WantDelta)
		}
	}
	if !w.deltaOn { // the first delta reports everything anyway
		w.touched, w.dropped = w.touched[:0], w.dropped[:0]
	}
	return resp
}

// shipDirty serializes the frames dirtied by the op just executed into the
// response and resets the dirty set — the partial-reconfiguration push that
// keeps thin client mirrors in sync. With a ShipHook (fleet mode) the same
// stream must first be accepted by the board hardware; a push failure fails
// the op with CodeFailover and keeps the dirty set, so the journal never
// records state the board does not hold.
func (w *Worker) shipDirty(resp *Response) error {
	n := w.js.Dev.DirtyFrameCount()
	stream, err := w.js.Dev.AppendPartialConfig(jbits.FrameBuf(0))
	if err != nil {
		resp.ErrorCode = protocol.CodeInternal
		return fmt.Errorf("server: serializing dirty frames: %w", err)
	}
	if w.cfg.ShipHook != nil {
		if err := w.cfg.ShipHook(stream, n); err != nil {
			resp.ErrorCode = protocol.CodeFailover
			return fmt.Errorf("server: board link for %s: %w", w.cfg.Name, err)
		}
	}
	w.js.Dev.ClearDirty()
	resp.Frames = stream
	resp.FrameN = n
	w.m.addShipped(n, len(stream))
	return nil
}

// errForeignNet refuses an op whose endpoint is on a net another session
// holds records of: unrouting or tracing it would act on that session's
// net, and routing from it would graft onto that session's tree (§3.1's
// fanout reuses a net's wires). It names neither the session nor its net.
var errForeignNet = errors.New("server: the endpoint is on another session's net")

func (w *Worker) dispatch(op *protocol.Op, req *Request, resp *Response) error {
	clear(w.eps) // the last op's would keep a removed core's ports
	w.eps = w.eps[:0]
	switch op.Byte {
	case protocol.OpConnect:
		stream, err := w.js.Dev.FullConfig()
		if err != nil {
			resp.ErrorCode = protocol.CodeInternal
			return err
		}
		resp.Rows, resp.Cols, resp.Arch, resp.Config = w.cfg.Rows, w.cfg.Cols, w.js.Dev.A.Name, stream
		return nil

	case protocol.OpReadback:
		stream, err := w.js.Dev.FullConfig()
		if err != nil {
			resp.ErrorCode = protocol.CodeInternal
			return err
		}
		resp.Config = stream
		return nil

	case protocol.OpRoute:
		src, err := w.endpoint(req.Source)
		if err != nil {
			resp.ErrorCode = protocol.CodeBadRequest
			return err
		}
		if w.router.ForeignNet(src, w.cur) {
			return errForeignNet
		}
		sinks, err := w.endpoints(req.Sinks)
		if err != nil {
			resp.ErrorCode = protocol.CodeBadRequest
			return err
		}
		switch len(sinks) {
		case 0:
			resp.ErrorCode = protocol.CodeBadRequest
			return fmt.Errorf("server: route with no sinks")
		case 1:
			return w.router.RouteNet(src, sinks[0])
		default:
			return w.router.RouteFanout(src, sinks)
		}

	case protocol.OpBus, protocol.OpBusBatch:
		srcs, err := w.endpoints(req.Sources)
		if err != nil {
			resp.ErrorCode = protocol.CodeBadRequest
			return err
		}
		for _, src := range srcs {
			if w.router.ForeignNet(src, w.cur) {
				return errForeignNet
			}
		}
		sinks, err := w.endpoints(req.Sinks)
		if err != nil {
			resp.ErrorCode = protocol.CodeBadRequest
			return err
		}
		if op.Byte == protocol.OpBus {
			return w.router.RouteBus(srcs, sinks)
		}
		return w.router.RouteBusBatch(srcs, sinks)

	case protocol.OpBatch:
		nets := make([]core.BatchNet, len(req.Nets))
		for i, n := range req.Nets {
			src, err := w.endpoint(&n.Source)
			if err != nil {
				resp.ErrorCode = protocol.CodeBadRequest
				return err
			}
			if w.router.ForeignNet(src, w.cur) {
				return errForeignNet
			}
			sinks, err := w.endpoints(n.Sinks)
			if err != nil {
				resp.ErrorCode = protocol.CodeBadRequest
				return err
			}
			nets[i] = core.BatchNet{Source: src, Sinks: sinks}
		}
		return w.router.RouteBatch(nets)

	case protocol.OpUnroute, protocol.OpReverseUnroute, protocol.OpTrace, protocol.OpReverseTrace:
		ep, err := w.endpoint(req.Source)
		if err != nil {
			resp.ErrorCode = protocol.CodeBadRequest
			return err
		}
		if w.router.ForeignNet(ep, w.cur) {
			return errForeignNet
		}
		var net *core.Net
		switch op.Byte {
		case protocol.OpUnroute:
			return w.router.Unroute(ep)
		case protocol.OpReverseUnroute:
			return w.router.ReverseUnroute(ep)
		case protocol.OpTrace:
			net, err = w.router.Trace(ep)
		default:
			net, err = w.router.ReverseTrace(ep)
		}
		if err != nil {
			return err
		}
		resp.Net = netToMsg(net)
		return nil

	case protocol.OpCoreNew:
		return w.coreNew(req.Core, resp)

	case protocol.OpCoreReplace:
		return w.coreReplace(req.Core, resp)

	case protocol.OpSessionImport:
		return w.sessionImport(req, resp)

	default: // a row of another scope: not a worker's to serve
		resp.ErrorCode = protocol.CodeUnknownOp
		return fmt.Errorf("server: op %q is not a session op", req.Op)
	}
}

func (w *Worker) coreNew(msg *protocol.CoreMsg, resp *Response) error {
	if msg == nil {
		resp.ErrorCode = protocol.CodeBadRequest
		return fmt.Errorf("server: core_new without core description")
	}
	if _, dup := w.cores[coreKey{w.cur, msg.Name}]; dup {
		resp.ErrorCode = protocol.CodeBadRequest
		return fmt.Errorf("server: core %q already exists", msg.Name)
	}
	c, groups, err := makeCore(msg)
	if err != nil {
		resp.ErrorCode = protocol.CodeBadRequest
		return err
	}
	if err := c.Place(msg.Row, msg.Col); err != nil {
		return err
	}
	if err := c.Implement(w.router); err != nil {
		return err
	}
	w.stamp++
	e := &coreEntry{c: c, groups: groups, msg: *msg, owner: w.cur, stamp: w.stamp}
	w.cores[coreKey{w.cur, msg.Name}] = e
	w.touched = append(w.touched, e)
	for _, g := range groups {
		for i, p := range c.Ports(g) {
			w.ports[p] = protocol.PortRefMsg{Core: msg.Name, Group: g, Index: i}
		}
	}
	return nil
}

func (w *Worker) coreReplace(msg *protocol.CoreMsg, resp *Response) error {
	if msg == nil {
		resp.ErrorCode = protocol.CodeBadRequest
		return fmt.Errorf("server: core_replace without core description")
	}
	entry, ok := w.cores[coreKey{w.cur, msg.Name}]
	if !ok {
		resp.ErrorCode = protocol.CodeBadRequest
		return fmt.Errorf("server: no core %q", msg.Name)
	}
	var retune func() error
	if msg.K != nil {
		mul, ok := entry.c.(*cores.ConstMul)
		if !ok {
			resp.ErrorCode = protocol.CodeBadRequest
			return fmt.Errorf("server: core %q is not a constmul, cannot retune K", msg.Name)
		}
		retune = func() error { return mul.SetConstant(w.router, *msg.K) }
	}
	if err := cores.Replace(w.router, entry.c, msg.Row, msg.Col, entry.groups, retune); err != nil {
		return err
	}
	// The replace moves the core and, with K set, retunes it. Kind, Bits and
	// KBits stay the core_new's: clients send a replace without them.
	entry.msg.Row, entry.msg.Col = msg.Row, msg.Col
	if msg.K != nil {
		k := *msg.K
		entry.msg.K = &k
	}
	w.touched = append(w.touched, entry)
	return nil
}

// makeCore instantiates a library core from its wire description and
// returns it with the port groups the replace flow must reconnect.
func makeCore(msg *protocol.CoreMsg) (cores.Core, []string, error) {
	switch msg.Kind {
	case "constmul":
		k := uint64(0)
		if msg.K != nil {
			k = *msg.K
		}
		c, err := cores.NewConstMul(msg.Name, k, msg.KBits)
		if err != nil {
			return nil, nil, err
		}
		return c, []string{"x", "p"}, nil
	case "register":
		c, err := cores.NewRegister(msg.Name, msg.Bits)
		if err != nil {
			return nil, nil, err
		}
		return c, []string{"d", "q"}, nil
	case "counter":
		step := uint64(1)
		if msg.K != nil {
			step = *msg.K
		}
		c, err := cores.NewCounter(msg.Name, msg.Bits, step)
		if err != nil {
			return nil, nil, err
		}
		return c, []string{"q"}, nil
	default:
		return nil, nil, fmt.Errorf("server: unknown core kind %q", msg.Kind)
	}
}

// endpoint resolves a wire endpoint to a core.EndPoint: a raw pin, or a
// port of a named server-side core of the op's owner.
func (w *Worker) endpoint(m *EndPointMsg) (core.EndPoint, error) {
	if m == nil {
		return nil, fmt.Errorf("server: missing endpoint")
	}
	if !m.IsPort {
		if m.Pin.Wire < 0 || m.Pin.Wire >= w.js.Dev.A.WireCount() {
			return nil, fmt.Errorf("server: wire %d outside architecture", m.Pin.Wire)
		}
		return core.NewPin(m.Pin.Row, m.Pin.Col, arch.Wire(m.Pin.Wire)), nil
	}
	entry, ok := w.cores[coreKey{w.cur, m.Port.Core}]
	if !ok {
		return nil, fmt.Errorf("server: no core %q", m.Port.Core)
	}
	ports := entry.c.Ports(m.Port.Group)
	if m.Port.Index < 0 || m.Port.Index >= len(ports) {
		return nil, fmt.Errorf("server: core %q group %q has no port %d",
			m.Port.Core, m.Port.Group, m.Port.Index)
	}
	return ports[m.Port.Index], nil
}

// endpoints resolves ms onto the op's endpoints and returns them, clipped.
func (w *Worker) endpoints(ms []EndPointMsg) ([]core.EndPoint, error) {
	from := len(w.eps)
	for i := range ms {
		ep, err := w.endpoint(&ms[i])
		if err != nil {
			return nil, err
		}
		w.eps = append(w.eps, ep)
	}
	return w.eps[from:len(w.eps):len(w.eps)], nil
}

// netToMsg converts a traced net to its wire form: the net and one slice
// each of its sinks and its PIPs.
func netToMsg(n *core.Net) *protocol.NetMsg {
	msg := &protocol.NetMsg{Source: pinEnd(n.Source),
		Sinks: make([]EndPointMsg, len(n.Sinks)), Pips: make([]protocol.PipMsg, len(n.PIPs))}
	for i, sp := range n.Sinks {
		msg.Sinks[i] = pinEnd(sp)
	}
	for i, p := range n.PIPs {
		msg.Pips[i] = protocol.PipMsg{Row: p.Row, Col: p.Col, From: int(p.From), To: int(p.To)}
	}
	return msg
}

func pinEnd(p core.Pin) EndPointMsg {
	return EndPointMsg{Pin: protocol.PinMsg{Row: p.Row, Col: p.Col, Wire: int(p.W)}}
}
