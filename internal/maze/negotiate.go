package maze

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/device"
)

// Negotiated-congestion batch routing — the §6 extension ("different
// algorithms are being investigated such as [6]", the routability-driven
// router of Swartz, Betz and Rose). Where JRoute's shipping calls are
// greedy and order-dependent, the batch router routes a whole set of nets
// together: nets are ripped up and re-routed each iteration with track
// costs inflated by present congestion and accumulated history, until no
// track is shared. Only then is anything committed to the device, so the
// §3.4 no-contention guarantee is preserved.
//
// Iterations are *snapshot-based*: every net rerouted in an iteration
// searches against the congestion state frozen at the iteration's start
// (minus its own previous usage), and the results are merged in net order
// afterwards. That makes each net's route a pure function of the snapshot,
// so the ripped-up nets of one iteration can be routed concurrently on a
// bounded worker pool — Parallelism below — and the converged result is
// bit-identical for every worker count, including 1. Only nets that lost a
// track conflict are rerouted: for each overused track, the lowest-index
// net using it keeps its route (a deterministic tie-break that both speeds
// convergence and prevents symmetric oscillation between identical nets).
//
// On top of that, Partition splits the batch into independent *scopes*
// (see partition.go): the connected components of inflated bounding-box
// overlap, so nets in different scopes have disjoint boxes. Each scope
// keeps its own iteration count, reroute list and overuse pass, but the
// scopes run in lockstep: iteration k routes the reroutes of every scope
// still negotiating as one job list on the worker pool, and then each
// scope merges its own routes. A converged scope drops out of the list.
// Scopes own no memory: every table is indexed by device.TrackIndex, the
// call's one congestion table is shared by all its scopes, and each worker
// searches on a pooled whole-device arena, as the single-net search does.
// Because every net's search is confined to its box in both modes and
// disjoint boxes cannot share tracks, the reroutes of one iteration read
// and write disjoint slots, and the scoped loops compute exactly what the
// single global loop computes: partitioning never changes the routed
// result. Nor does it decide the schedule: in both modes the pool is
// handed nets.

// NetSpec is one net to batch-route: a source track and its sink tracks.
type NetSpec struct {
	Source device.Track
	Sinks  []device.Track
}

// BatchResult reports a converged negotiation.
type BatchResult struct {
	// PIPs per net, in application order.
	Nets [][]device.PIP
	// Iterations used until convergence: the maximum over scopes, which
	// equals the global iteration count (a scope that converged early
	// contributes nothing to later global iterations anyway).
	Iterations int
	// Explored counts total search states over all iterations.
	Explored int

	// Regions is the number of scopes negotiated, 0 when partitioning is
	// disabled.
	Regions int
}

// NegotiationOptions tune the batch router.
type NegotiationOptions struct {
	Options
	// Parallelism bounds the worker goroutines, which re-route one
	// iteration's ripped-up nets concurrently, those of every scope
	// together. 0 means
	// runtime.GOMAXPROCS(0); 1 routes on the calling goroutine. Every
	// value produces the identical result (and therefore the identical
	// committed bitstream) — only wall-clock time changes.
	Parallelism int
	// Partition enables scope decomposition: the connected components of
	// box overlap, each scope negotiated independently of the others. The
	// routed result is identical with partitioning on or off;
	// core.RouteBatch always sets it, and off is the reference loop the
	// tests compare against.
	Partition bool
}

// The negotiation's constants. Every pinned result (TestNegotiationDigests,
// the goldens that route batches) depends on each of them.
const (
	maxIterations = 30 // rip-up/re-route rounds before giving up
	presentFactor = 2  // growth per iteration of the cost of a track another net uses now
	historyFactor = 1  // weight of a track's accumulated overuse
)

func (o NegotiationOptions) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// congestion holds the dense per-track negotiation state of one
// NegotiatedRoute call, indexed by device.TrackIndex and shared by all of
// its scopes. A track's load is epoch-stamped, so a pooled instance resets
// in O(1): a slot's counters are zero unless its stamp matches the current
// epoch. keeper is not stamped; it is zero at rest, and the scope that sets
// a slot clears it again in the same overuse pass.
type congestion struct {
	n      int
	epoch  uint16
	stamp  []uint16
	load   []load  // what the surcharge reads, in one cell
	keeper []int32 // 1 + global index of the net that keeps an overused track
}

// load is a track's congestion: 8 bytes, as the two tables it replaces.
type load struct {
	present int32 // nets currently using the track
	history int32 // accumulated overuse
}

func getCongestion(n int) *congestion {
	c := pooled[congestion](&congPool)
	if c.n < n {
		c.stamp = make([]uint16, n)
		c.load = make([]load, n)
		c.keeper = make([]int32, n)
		c.epoch = 0
		c.n = n
	}
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
	return c
}

func putCongestion(c *congestion) { congPool.Put(c) }

// at returns track i's load, zeroed first if it is stale.
func (c *congestion) at(i int32) *load {
	if c.stamp[i] != c.epoch {
		c.stamp[i] = c.epoch
		c.load[i] = load{}
	}
	return &c.load[i]
}

func (c *congestion) presentAt(i int32) int32 {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return c.load[i].present
}

func (c *congestion) addPresent(i int32, d int32) { c.at(i).present += d }

func (c *congestion) addHistory(i int32, d int32) { c.at(i).history += d }

// preppedNet is a NetSpec resolved once up front: sinks in the fixed
// nearest-first routing order, plus the inflated bounding box that
// confines its searches (and drives partitioning).
type preppedNet struct {
	src   device.Track
	sinks []device.Track
	box   rect
}

// netRoute is one net's routing result within an iteration.
type netRoute struct {
	pips     []device.PIP
	used     []int32 // track indices occupied, source first, deduplicated
	explored int
	err      error
}

// scopeResult is one scope's converged (or failed) negotiation.
type scopeResult struct {
	routes     [][]device.PIP // indexed like scope.nets
	iterations int
	explored   int
	err        error
	errIter    int // iteration of the failure; maxIterations+1 for nonconvergence
	errNet     int // global index of the failing net
}

// negScratch is a negotiation's memory, kept across calls (whole-device
// tables are pooled per call). Per-net lists are indexed by a net's place in
// members, the scopes' nets end to end: each scope has its own window.
type negScratch struct {
	prepped          []preppedNet
	boxes            []rect
	sinks            []device.Track // every net's sinks in routing order
	res              BatchResult
	uf               unionFind
	members, reroute []int // see buildScopes; reroute per place
	scopes           []scope
	results          []scopeResult
	// An iteration's reroutes, as places in members, scope after scope, and
	// what they read: the device, and the policy at the iteration's presFac.
	jobs   []int
	dev    *device.Device
	pol    policy
	routes []netRoute // by place: the route of each net rerouted this iteration
	// A net's used tracks and route, twice: each pair trades places when
	// the net is rerouted, as the merge still reads the old used list.
	used, usedSpare [][]int32
	pips, pipsSpare [][]device.PIP
	pool            pool // runs every iteration's reroutes
}

// fit returns s at length n, keeping the elements it held past its length.
func fit[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// NegotiatedRoute routes all nets together under negotiated congestion and
// returns the per-net PIP lists without touching device state; Apply the
// result (or use core.Router.RouteBatch, which does both). It fails if the
// negotiation does not converge within 30 iterations. The result is
// deterministic: independent of Parallelism and Partition settings, and
// repeatable across runs. The caller owns it.
func NegotiatedRoute(dev *device.Device, nets []NetSpec, opt NegotiationOptions) (*BatchResult, error) {
	s := pooled[Scratch](&scratchPool)
	defer scratchPool.Put(s)
	res, err := s.NegotiatedRoute(dev, nets, opt)
	if err != nil {
		return nil, err
	}
	own := *res
	own.Nets = make([][]device.PIP, len(res.Nets))
	for i, pips := range res.Nets {
		own.Nets[i] = slices.Clone(pips)
	}
	return &own, nil
}

// NegotiatedRoute is the one body of the negotiation, in s: the result and
// its Nets are s's, valid until s negotiates again.
func (s *Scratch) NegotiatedRoute(dev *device.Device, nets []NetSpec, opt NegotiationOptions) (*BatchResult, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("maze: empty batch: %w", ErrUnroutable)
	}
	ns := &s.neg
	// Every net's bounding box is inflated by 2×HexLen on all sides
	// before confinement and partitioning — detour room plus the
	// canonical-origin span of the longest non-long wire. It is part of
	// the search definition, identical in both partition modes.
	margin := 2 * dev.A.HexLen
	prepped, boxes := fit(ns.prepped, len(nets)), fit(ns.boxes, len(nets))
	ns.prepped, ns.boxes, ns.sinks = prepped, boxes, ns.sinks[:0]
	for i, n := range nets {
		if len(n.Sinks) == 0 {
			return nil, fmt.Errorf("maze: batch net %d has no sinks: %w", i, ErrUnroutable)
		}
		// Route sinks nearest-first, equidistant ones in the order given.
		from := len(ns.sinks)
		ns.sinks = append(ns.sinks, n.Sinks...)
		src, sinks := n.Source, ns.sinks[from:len(ns.sinks):len(ns.sinks)]
		if len(sinks) > 1 {
			dist := func(t device.Track) int { return abs(t.Row-src.Row) + abs(t.Col-src.Col) }
			slices.SortStableFunc(sinks, func(a, b device.Track) int { return cmp.Compare(dist(a), dist(b)) })
		}
		box := netBox(dev, src, sinks, margin)
		prepped[i] = preppedNet{src: src, sinks: sinks, box: box}
		boxes[i] = box
	}

	res := &ns.res
	*res = BatchResult{Nets: fit(res.Nets, len(nets))}
	scopes := ns.buildScopes(boxes, opt.Partition)
	if opt.Partition {
		res.Regions = len(scopes)
	}

	results := ns.runScopes(dev, opt, prepped, scopes)

	// A deterministic failure: among failed scopes, report the one whose
	// failure happened first — lexicographically by (iteration, net) —
	// exactly the error the single global loop would have hit.
	errAt := -1
	for i := range results {
		if results[i].err == nil {
			continue
		}
		if errAt < 0 || results[i].errIter < results[errAt].errIter ||
			(results[i].errIter == results[errAt].errIter && results[i].errNet < results[errAt].errNet) {
			errAt = i
		}
	}
	if errAt >= 0 {
		return nil, results[errAt].err
	}

	for si := range scopes {
		sc, r := &scopes[si], &results[si]
		for j, i := range sc.nets {
			res.Nets[i] = r.routes[j]
		}
		if r.iterations > res.Iterations {
			res.Iterations = r.iterations
		}
		res.Explored += r.explored
	}
	return res, nil
}

// runScopes runs every scope's negotiation loop over one pooled congestion
// table, in lockstep: iteration k routes the reroutes of every scope still
// negotiating as one job list, then merges each scope in turn. A round in
// which a scope fails ends the call; NegotiatedRoute picks the error. scopes
// are s's, as buildScopes left them.
func (s *negScratch) runScopes(dev *device.Device, opt NegotiationOptions, prepped []preppedNet, scopes []scope) []scopeResult {
	cong := getCongestion(dev.NumTracks())
	defer putCongestion(cong)
	n := len(prepped)
	s.used, s.usedSpare, s.pips, s.pipsSpare = fit(s.used, n), fit(s.usedSpare, n), fit(s.pips, n), fit(s.pipsSpare, n)
	s.routes, s.reroute, s.results = fit(s.routes, n), fit(s.reroute, n), fit(s.results, len(scopes))
	// presFac starts at 0: the first iteration ignores sharing entirely.
	s.dev, s.pol, s.prepped = dev, opt.negotiated(cong), prepped
	for p := range s.used {
		s.used[p] = s.used[p][:0] // no net has tracks before its first route
	}
	for i := range scopes {
		sc := &scopes[i]
		lo, hi := sc.off, sc.off+len(sc.nets)
		sc.reroute = s.reroute[lo:hi:hi] // scope-local positions
		for j := range sc.reroute {
			sc.reroute[j] = j
		}
		s.results[i] = scopeResult{routes: s.pips[lo:hi:hi]}
	}
	for iter := 1; iter <= maxIterations; iter++ {
		s.jobs = s.jobs[:0]
		for i := range scopes {
			sc := &scopes[i]
			for _, j := range sc.reroute {
				s.jobs = append(s.jobs, sc.off+j)
			}
		}
		if len(s.jobs) == 0 {
			return s.results // every scope converged
		}
		s.routeAll(opt.parallelism())
		failed := false
		for i := range scopes {
			if len(scopes[i].reroute) > 0 {
				s.merge(&scopes[i], iter, &s.results[i])
				failed = failed || s.results[i].err != nil
			}
		}
		if failed {
			return s.results
		}
		s.pol.presFac = presentFactor * int32(iter)
	}
	for i := range scopes {
		if sc := &scopes[i]; len(sc.reroute) > 0 {
			s.results[i].err = fmt.Errorf("maze: negotiation did not converge in %d iterations: %w",
				maxIterations, ErrUnroutable)
			s.results[i].errIter, s.results[i].errNet = maxIterations+1, sc.nets[0]
		}
	}
	return s.results
}

// merge folds scope sc's routes of iteration iter into the call's shared
// congestion table, touching only the slots of tracks its nets use, and runs
// its overuse pass, which leaves in sc.reroute the places to reroute next:
// none once the scope has converged.
func (s *negScratch) merge(sc *scope, iter int, out *scopeResult) {
	cong := s.pol.cong
	out.iterations = iter
	// Merge in net order. Results are per-net pure functions of the
	// iteration snapshot, so this ordering — not the worker scheduling —
	// defines the outcome.
	for _, j := range sc.reroute {
		p := sc.off + j
		r := &s.routes[p]
		if r.err != nil {
			out.err = fmt.Errorf("maze: batch net %d: %w", sc.nets[j], r.err)
			out.errIter, out.errNet = iter, sc.nets[j]
			return
		}
		for _, k := range s.used[p] {
			cong.addPresent(k, -1)
		}
		out.routes[j], s.pipsSpare[p] = r.pips, out.routes[j]
		s.used[p], s.usedSpare[p] = r.used, s.used[p]
		for _, k := range r.used {
			cong.addPresent(k, 1)
		}
		out.explored += r.explored
	}
	// Find overuse; accumulate history on shared tracks; decide who
	// reroutes next round (everyone sharing a track except its first
	// claimant, so each conflict strands at most one net in place). Scope
	// nets ascend in global order, so the first claimant here is the first
	// claimant of the global loop too. The keeper is the *global* net index
	// — the tie-break must not depend on how nets were grouped. The pass
	// sets a keeper on exactly the overused tracks of the scope's nets, and
	// clears them straight after, so every return leaves the shared table's
	// keeper clean. A track is overused only if a net other than its keeper
	// uses it, so the scope has converged exactly when no net reroutes.
	used := s.used[sc.off : sc.off+len(sc.nets)]
	reroute := sc.reroute[:0]
	for j, i := range sc.nets {
		me := int32(i) + 1
		needs := false
		for _, k := range used[j] {
			c := cong.presentAt(k)
			if c <= 1 {
				continue
			}
			if cong.keeper[k] == 0 {
				cong.keeper[k] = me
				cong.addHistory(k, c-1)
			}
			if cong.keeper[k] != me {
				needs = true
			}
		}
		if needs {
			reroute = append(reroute, j)
		}
	}
	for j := 0; len(reroute) > 0 && j < len(used); j++ {
		for _, k := range used[j] {
			if cong.presentAt(k) > 1 {
				cong.keeper[k] = 0
			}
		}
	}
	sc.reroute = reroute
}

// routeAll routes every net at s.jobs against the iteration's congestion
// snapshot, on the calling goroutine or on at most par of the pool's. A
// net's route is built in its spare buffers, into s.routes at its place,
// and does not depend on the worker count.
func (s *negScratch) routeAll(par int) {
	if par = min(par, len(s.jobs)); par > 1 {
		runPool(&s.pool, par, s)
		return
	}
	w := newWorker(s.dev, s.pol)
	for _, p := range s.jobs {
		s.route(w, p)
	}
	w.release() // not deferred, as in work
}

// work routes the jobs p hands out: s is the job of routeAll's pool.
func (s *negScratch) work(p *pool) {
	w := newWorker(s.dev, s.pol)
	for x := p.take(); x < len(s.jobs); x = p.take() {
		s.route(w, s.jobs[x])
	}
	w.release() // not deferred: a goroutine that panics drops its tables
}

// route routes the net at place p on w.
func (s *negScratch) route(w *negWorker, p int) {
	s.routes[p] = w.routeNet(s.prepped[s.members[p]], s.used[p], s.usedSpare[p], s.pipsSpare[p])
}

// A poolJob is the work a pool's goroutines share: each calls work, which
// takes indices from the pool until they run out.
type poolJob interface{ work(p *pool) }

// runPool runs job on workers goroutines, which take turns at the indices
// p hands out from 0. A panic ends its goroutine and skips the rest of its
// work; the first is raised again here, with its stack, once all are done.
// p is reset first, so a caller keeps one for calls that do not nest. A
// goroutine finds its job in p, so starting one allocates nothing.
func runPool(p *pool, workers int, job poolJob) {
	if p.run == nil {
		p.run = p.worker
	}
	p.next.Store(0)
	p.caught.Store(nil)
	p.job = job
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go p.run()
	}
	p.wg.Wait()
	p.job = nil
	if v := p.caught.Load(); v != nil {
		panic(v)
	}
}

type pool struct {
	next   atomic.Int64
	wg     sync.WaitGroup
	caught atomic.Pointer[poolPanic] // the first panic, with its stack
	job    poolJob                   // what runPool's goroutines run
	run    func()                    // p.worker, made once
}

// worker is one of runPool's goroutines.
func (p *pool) worker() {
	defer func() {
		if v := recover(); v != nil {
			p.caught.CompareAndSwap(nil, &poolPanic{v, debug.Stack()})
		}
		p.wg.Done()
	}()
	p.job.work(p)
}

func (p *pool) take() int { return int(p.next.Add(1) - 1) }

type poolPanic struct {
	value any
	stack []byte
}

func (p *poolPanic) String() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }

// negWorker is the per-goroutine state of the routing phase: the
// iteration's policy with this worker's self set (the previous-iteration
// tracks of the net being routed, whose usage must not penalize itself), a
// search arena, and a membership set for the tracks of the route being
// built — the pooled whole-device objects the single-net search uses — and,
// pooled with the worker, the tracks a route may branch from.
type negWorker struct {
	dev       *device.Device
	pol       policy
	ar        *arena
	cur       *markSet // usage accumulated by the route being built
	netTracks []device.Track
}

var workerPool sync.Pool

func newWorker(dev *device.Device, pol policy) *negWorker {
	n := dev.NumTracks()
	w := pooled[negWorker](&workerPool)
	w.dev, w.pol, w.ar, w.cur = dev, pol, getArena(n), getMarkSet(n)
	w.pol.self = getMarkSet(n)
	return w
}

func (w *negWorker) release() {
	putArena(w.ar)
	putMarkSet(w.pol.self)
	putMarkSet(w.cur)
	w.dev, w.pol, w.ar, w.cur = nil, policy{}, nil, nil
	workerPool.Put(w)
}

// routeNet routes one net (all sinks, with in-net reuse) against the
// congestion snapshot, without mutating shared state. Every search is
// confined to the net's bounding box, identically whether partitioning is
// on or off — it is what makes scopes with disjoint boxes provably
// non-interacting. Tracks used by other nets are allowed (that is the
// negotiation), but tracks already driven on the real device are hard
// obstacles. The route is built in the net's spare buffers: its PIPs in
// pipBuf's and its used list in usedBuf's.
func (w *negWorker) routeNet(net preppedNet, oldUsed, usedBuf []int32, pipBuf []device.PIP) netRoute {
	dev := w.dev
	w.pol.box = net.box
	w.pol.self.reset()
	for _, k := range oldUsed {
		w.pol.self.add(k)
	}
	w.cur.reset()
	srcIdx := dev.TrackIndex(net.src)
	w.cur.add(srcIdx)
	w.netTracks = append(w.netTracks[:0], net.src)
	pips, used := pipBuf[:0], append(usedBuf[:0], srcIdx)
	explored := 0
	for _, sink := range net.sinks {
		from := len(pips)
		route, err := w.pol.search(dev, w.ar, w.netTracks, sink, pips)
		explored += route.Explored
		if err != nil {
			return netRoute{explored: explored, err: err}
		}
		pips = route.PIPs
		for _, p := range pips[from:] {
			t, ok := dev.CanonOK(p.Row, p.Col, p.To)
			if !ok {
				return netRoute{explored: explored, err: fmt.Errorf("maze: bad segment PIP %v", p)}
			}
			k := dev.TrackIndex(t)
			if w.cur.has(k) {
				continue
			}
			w.cur.add(k)
			used = append(used, k)
			if !dev.A.ClassOf(t.W).Kind.IsSink() {
				// sinks are not reusable as sources
				w.netTracks = append(w.netTracks, t)
			}
		}
	}
	return netRoute{pips: pips, used: used, explored: explored}
}
