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
// (see partition.go): groups of nets whose inflated bounding boxes are
// pairwise disjoint across groups. Each scope runs its own negotiation
// loop concurrently, with no global iteration barrier. Scopes own no
// memory: every table is indexed by device.TrackIndex, the call's one
// congestion table is shared by all its scopes, and each worker searches
// on a pooled whole-device arena, as the single-net search does. Because
// every net's search is confined to its box in both modes and disjoint
// boxes cannot share tracks, concurrent scopes read and write disjoint
// slots, and the scoped loops compute exactly what the single global loop
// computes: partitioning never changes the routed result, only wall-clock
// time.

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

	// Partition observability. All zero when partitioning is disabled.
	//
	// Regions is the number of bisection leaf regions that received at
	// least one net; CrossingNets counts nets that crossed a bisection
	// cut and were merged conservatively; Scopes is the number of
	// independent negotiation loops actually run.
	Regions      int
	CrossingNets int
	Scopes       int
	// RegionIterations sums iterations of scopes with no crossing nets
	// (pure regional negotiation); GlobalIterations sums iterations of
	// scopes that absorbed crossing nets — the merged, global-flavoured
	// work. With partitioning off the single whole-device pass counts as
	// global.
	RegionIterations int
	GlobalIterations int
}

// NegotiationOptions tune the batch router.
type NegotiationOptions struct {
	Options
	// Parallelism bounds the worker goroutines. With a single scope they
	// re-route one iteration's ripped-up nets concurrently; with several
	// scopes they run whole scopes concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 routes on the calling goroutine. Every
	// value produces the identical result (and therefore the identical
	// committed bitstream) — only wall-clock time changes.
	Parallelism int
	// Partition enables scope decomposition: recursive bisection of the
	// device plus a conservative merge of cut-crossing nets, each scope
	// negotiated independently of the others. The routed
	// result is identical with partitioning on or off; core.RouteBatch
	// always sets it, and off is the reference loop the tests compare
	// against.
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

// partitionDepth caps bisection by Parallelism: 4 + ceil(log2(par))
// levels gives up to 16·par leaves — enough slack for the merge phase to
// eat some without starving workers, while keeping the cut scan cheap.
func (o NegotiationOptions) partitionDepth() int {
	d := 4
	for p := 1; p < o.parallelism(); p <<= 1 {
		d++
	}
	return d
}

// congestion holds the dense per-track negotiation state of one
// NegotiatedRoute call, indexed by device.TrackIndex and shared by all of
// its scopes. present and history are epoch-stamped, so a pooled instance
// resets in O(1): a slot's counters are zero unless its stamp matches the
// current epoch. keeper is not stamped; it is zero at rest, and the scope
// that sets a slot clears it again in the same overuse pass.
type congestion struct {
	n       int
	epoch   uint16
	stamp   []uint16
	present []int32 // nets currently using the track
	history []int32 // accumulated overuse
	keeper  []int32 // 1 + global index of the net that keeps an overused track
}

func getCongestion(n int) *congestion {
	c := pooled[congestion](&congPool)
	if c.n < n {
		c.stamp = make([]uint16, n)
		c.present = make([]int32, n)
		c.history = make([]int32, n)
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

func (c *congestion) touch(i int32) {
	if c.stamp[i] != c.epoch {
		c.stamp[i] = c.epoch
		c.present[i] = 0
		c.history[i] = 0
	}
}

func (c *congestion) presentAt(i int32) int32 {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return c.present[i]
}

func (c *congestion) historyAt(i int32) int32 {
	if c.stamp[i] != c.epoch {
		return 0
	}
	return c.history[i]
}

func (c *congestion) addPresent(i int32, d int32) {
	c.touch(i)
	c.present[i] += d
}

func (c *congestion) addHistory(i int32, d int32) {
	c.touch(i)
	c.history[i] += d
}

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
	prepped                    []preppedNet
	boxes                      []rect
	sinks                      []device.Track // every net's sinks in routing order
	res                        BatchResult
	uf                         unionFind
	members, crossers, reroute []int // see buildScopes; reroute per place
	stack                      []bisection
	crossed                    []bool
	scopes                     []scope
	results                    []scopeResult
	routes                     []netRoute // an iteration's reroutes, in reroute order
	// A net's used tracks and route, twice: each pair trades places when
	// the net is rerouted, as the merge still reads the old used list.
	used, usedSpare [][]int32
	pips, pipsSpare [][]device.PIP
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
	depth := 0 // unpartitioned: the device is one region, all nets one scope
	if opt.Partition {
		depth = opt.partitionDepth()
	}
	scopes, regions, crossing := ns.buildScopes(dev, boxes, depth)
	if opt.Partition {
		res.Regions, res.CrossingNets, res.Scopes = regions, crossing, len(scopes)
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
		if opt.Partition && sc.crossing == 0 {
			res.RegionIterations += r.iterations
		} else {
			res.GlobalIterations += r.iterations
		}
	}
	return res, nil
}

// runScopes executes every scope's negotiation loop on a worker pool, all
// over one pooled congestion table. A single scope instead gets the full
// Parallelism budget for its intra-iteration reroutes — which is exactly
// the pre-partitioning behaviour.
func (s *negScratch) runScopes(dev *device.Device, opt NegotiationOptions, prepped []preppedNet, scopes []scope) []scopeResult {
	cong := getCongestion(dev.NumTracks())
	defer putCongestion(cong)
	n := len(prepped)
	s.used, s.usedSpare, s.pips, s.pipsSpare = fit(s.used, n), fit(s.usedSpare, n), fit(s.pips, n), fit(s.pipsSpare, n)
	s.routes, s.reroute, s.results = fit(s.routes, n), fit(s.reroute, n), fit(s.results, len(scopes))
	par := opt.parallelism()
	if len(scopes) == 1 || par == 1 {
		scopes[0].par = par
		for i := range scopes {
			s.results[i] = s.runScope(dev, opt, prepped, &scopes[i], cong)
		}
		return s.results
	}
	runPool(min(par, len(scopes)), func(p *pool) {
		for i := p.take(); i < len(scopes); i = p.take() {
			s.results[i] = s.runScope(dev, opt, prepped, &scopes[i], cong)
		}
	})
	return s.results
}

// runScope runs the negotiation loop for one scope over the call's shared
// congestion table, touching only the slots of tracks its nets use, in
// its windows of s's lists.
func (s *negScratch) runScope(dev *device.Device, opt NegotiationOptions, prepped []preppedNet, sc *scope, cong *congestion) scopeResult {
	// presFac starts at 0: the first iteration ignores sharing entirely.
	sc.dev, sc.cong, sc.pol, sc.presFac = dev, cong, opt.negotiated(cong), 0

	n := len(sc.nets)
	lo, hi := sc.off, sc.off+n
	used, spare, pipsSpare := s.used[lo:hi:hi], s.usedSpare[lo:hi:hi], s.pipsSpare[lo:hi:hi]
	for j := range used {
		used[j] = used[j][:0] // no net has tracks before its first route
	}
	out, results := scopeResult{routes: s.pips[lo:hi:hi]}, s.routes[lo:hi:hi]

	reroute := s.reroute[lo:hi:hi] // scope-local positions
	for j := range reroute {
		reroute[j] = j
	}

	for iter := 1; iter <= maxIterations; iter++ {
		out.iterations = iter
		results := sc.routeAll(results[:len(reroute)], prepped, reroute, used, spare, pipsSpare)
		// Merge in net order. Results are per-net pure functions of the
		// iteration snapshot, so this ordering — not the worker
		// scheduling — defines the outcome.
		for x, j := range reroute {
			r := &results[x]
			if r.err != nil {
				out.err = fmt.Errorf("maze: batch net %d: %w", sc.nets[j], r.err)
				out.errIter, out.errNet = iter, sc.nets[j]
				return out
			}
			for _, k := range used[j] {
				sc.cong.addPresent(k, -1)
			}
			out.routes[j], pipsSpare[j] = r.pips, out.routes[j]
			used[j], spare[j] = r.used, used[j]
			for _, k := range r.used {
				sc.cong.addPresent(k, 1)
			}
			out.explored += r.explored
		}
		// Find overuse; accumulate history on shared tracks; decide who
		// reroutes next round (everyone sharing a track except its first
		// claimant, so each conflict strands at most one net in place).
		// Scope nets ascend in global order, so the first claimant here
		// is the first claimant of the global loop too. The keeper is the
		// *global* net index — the tie-break must not depend on how nets
		// were grouped. The pass sets a keeper on exactly the overused
		// tracks of the scope's nets, and clears them straight after, so
		// every return leaves the shared table's keeper clean.
		reroute = reroute[:0]
		overused := false
		for j := 0; j < n; j++ {
			me := int32(sc.nets[j]) + 1
			needs := false
			for _, k := range used[j] {
				c := sc.cong.presentAt(k)
				if c <= 1 {
					continue
				}
				overused = true
				if sc.cong.keeper[k] == 0 {
					sc.cong.keeper[k] = me
					sc.cong.addHistory(k, c-1)
				}
				if sc.cong.keeper[k] != me {
					needs = true
				}
			}
			if needs {
				reroute = append(reroute, j)
			}
		}
		for j := 0; overused && j < n; j++ {
			for _, k := range used[j] {
				if sc.cong.presentAt(k) > 1 {
					sc.cong.keeper[k] = 0
				}
			}
		}
		if !overused {
			return out
		}
		sc.presFac = presentFactor * int32(iter)
	}
	out.err = fmt.Errorf("maze: negotiation did not converge in %d iterations: %w",
		maxIterations, ErrUnroutable)
	out.errIter, out.errNet = maxIterations+1, sc.nets[0]
	return out
}

// routeAll routes the given nets against the current congestion snapshot,
// sequentially or on a bounded worker pool, into results. reroute holds
// positions j in the scope's net list; results[x] is reroute[x]'s route,
// built in pipsSpare[j] and spare[j], and does not depend on the worker count.
func (sc *scope) routeAll(results []netRoute, prepped []preppedNet, reroute []int, oldUsed, spare [][]int32, pipsSpare [][]device.PIP) []netRoute {
	par := min(sc.par, len(reroute))
	if par <= 1 {
		w := sc.newWorker()
		for x, j := range reroute {
			results[x] = w.routeNet(prepped[sc.nets[j]], oldUsed[j], spare[j], pipsSpare[j])
		}
		w.release() // not deferred, as in runPool
		return results
	}
	runPool(par, func(p *pool) {
		w := sc.newWorker()
		for x := p.take(); x < len(reroute); x = p.take() {
			j := reroute[x]
			results[x] = w.routeNet(prepped[sc.nets[j]], oldUsed[j], spare[j], pipsSpare[j])
		}
		w.release() // not deferred: a goroutine that panics drops its tables
	})
	return results
}

// runPool runs body on workers goroutines, which take turns at the indices
// the pool hands out. A panic ends its goroutine and skips the rest of its
// body; the first is raised again here, with its stack, once all are done.
func runPool(workers int, body func(*pool)) {
	p := &pool{}
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer func() {
				if v := recover(); v != nil {
					p.caught.CompareAndSwap(nil, &poolPanic{v, debug.Stack()})
				}
				p.wg.Done()
			}()
			body(p)
		}()
	}
	if p.wg.Wait(); p.caught.Load() != nil {
		panic(p.caught.Load())
	}
}

type pool struct {
	next   atomic.Int64
	wg     sync.WaitGroup
	caught atomic.Pointer[poolPanic] // the first panic, with its stack
}

func (p *pool) take() int { return int(p.next.Add(1) - 1) }

type poolPanic struct {
	value any
	stack []byte
}

func (p *poolPanic) String() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }

// negWorker is the per-goroutine state of the routing phase: the scope's
// policy with this worker's self set (the previous-iteration tracks of the
// net being routed, whose usage must not penalize itself), a search arena,
// and a membership set for the tracks of the route being built — the
// pooled whole-device objects the single-net search uses — and, pooled with
// the worker, the tracks a route may branch from.
type negWorker struct {
	sc        *scope
	pol       policy
	ar        *arena
	cur       *markSet // usage accumulated by the route being built
	netTracks []device.Track
}

var workerPool sync.Pool

func (sc *scope) newWorker() *negWorker {
	n := sc.dev.NumTracks()
	w := pooled[negWorker](&workerPool)
	w.sc, w.pol, w.ar, w.cur = sc, sc.pol, getArena(n), getMarkSet(n)
	w.pol.self = getMarkSet(n)
	return w
}

func (w *negWorker) release() {
	putArena(w.ar)
	putMarkSet(w.pol.self)
	putMarkSet(w.cur)
	w.sc, w.pol, w.ar, w.cur = nil, policy{}, nil, nil
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
	dev := w.sc.dev
	w.pol.box, w.pol.presFac = net.box, w.sc.presFac
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
			if !isNetEndpointKind(dev.A.ClassOf(t.W).Kind) {
				// sinks are not reusable as sources
				w.netTracks = append(w.netTracks, t)
			}
		}
	}
	return netRoute{pips: pips, used: used, explored: explored}
}
