package maze

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/device"
)

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// nKinds sizes the per-kind tables; arch.Kind is dense and ends at
// KindBRAMOut.
const nKinds = int(arch.KindBRAMOut) + 1

// The per-kind tables are filled once, here: the search loop indexes them
// for every edge, and a search pays nothing to set them up.
var (
	wireHops  = hopTable(hopCost)
	delayHops = hopTable(timingCost)
	unitHops  = hopTable(func(arch.Kind) int { return 1 })

	passShort = passTable(false)
	passLongs = passTable(true)
)

func hopTable(cost func(arch.Kind) int) (t [nKinds]int32) {
	for k := range t {
		t[k] = int32(cost(arch.Kind(k)))
	}
	return t
}

// passTable marks the kinds a route may pass through: never a sink pin
// (CLB pins are not thoroughfares), and a long line only when asked for.
func passTable(longs bool) (t [nKinds]bool) {
	for k := range t {
		kind := arch.Kind(k)
		long := kind == arch.KindLongH || kind == arch.KindLongV
		t[k] = !kind.IsSink() && (longs || !long)
	}
	return t
}

// policy is everything the search kernel is told besides the device and the
// endpoints. The four routers of this package are four ways of filling it:
//
//	            hop    heuristic (weight·est)                 confined  surcharge
//	AStar       wires  2·(hexes·2 + min(tail,4)·1)    [long]  no        no
//	  delay     delay  2·(hexes·24 + min(tail,4)·12)  [long]  no        no
//	Lee         1      0                                      no        no
//	negotiated  wires  2·(hexes·2 + min(tail,2)·1)            box       present + history
//
// where a distance of d tiles is d/HexLen hexes and a tail of d%HexLen
// singles, and [long] caps est at one long plus one hex when long lines are
// allowed. The negotiated row differs from the first in its tail cap, in
// never applying the long cap, and in counting wires even when delay was
// asked for. None of the three is a decision: they are kept because changing
// one moves routed bytes (ROADMAP item 2 lists them for step B's re-pin).
type policy struct {
	hop  [nKinds]int32 // cost of driving a wire of each kind
	pass [nKinds]bool  // kinds a route may pass through; the sink itself is exempt

	// The heuristic's terms. weight 0 is uniform-cost search.
	weight, hexCost, singleCost int
	tailCap                     int // singles counted for the tail, at most
	longCap                     int // est is at most this

	maxNodes int
	avoid    []Rect

	// Surcharge: what occupying a track costs beyond the hop, from the
	// nets using it now (presFac each, not counting the net being routed,
	// whose previous tracks are in self) and its accumulated overuse. A
	// policy with a congestion table is also confined: only tracks
	// canonical inside box are expanded.
	box     rect
	cong    *congestion
	self    *markSet
	presFac int32
}

// fill is the part of every policy that comes straight from the options,
// around a hop table.
func (o Options) fill(hops *[nKinds]int32) policy {
	p := policy{hop: *hops, pass: passShort, longCap: math.MaxInt, maxNodes: o.maxNodes(), avoid: o.Avoid}
	if o.UseLongLines {
		p.pass = passLongs
	}
	return p
}

// guide sets the heuristic that goes with the policy's hop table.
func (p *policy) guide(tailCap int) {
	p.weight, p.hexCost, p.singleCost, p.tailCap = 2, int(p.hop[arch.KindHex]), int(p.hop[arch.KindSingle]), tailCap
}

// lee is the uniform-cost policy.
func (o Options) lee() policy { return o.fill(&unitHops) }

// astar is the single-net policy: wire count, or delay when asked for.
func (o Options) astar() policy {
	hops := &wireHops
	if o.TimingDriven {
		hops = &delayHops
	}
	p := o.fill(hops)
	p.guide(4)
	if o.UseLongLines {
		p.longCap = int(p.hop[arch.KindLongH]) + p.hexCost
	}
	return p
}

// negotiated is the policy of one negotiation; each iteration sets its
// present factor, and a worker adds its self set and the box of each net it
// routes.
func (o Options) negotiated(cong *congestion) policy {
	p := o.fill(&wireHops)
	p.guide(2)
	p.cong = cong
	return p
}

// AStar searches from any of the source tracks to the sink track, expanding
// architecture-legal PIPs onto undriven wires only. Multiple sources make
// net reuse free: RouteFanout seeds the search with every track of the
// already-routed net at cost zero, so "the router attempts to reuse the
// previous paths as much as possible" (§3.1).
func AStar(dev *device.Device, sources []device.Track, sink device.Track, opt Options) (*Route, error) {
	return opt.astar().route(dev, sources, sink)
}

// Lee is the uniform-cost breadth-first maze router (Lee's algorithm, the
// classical reference the paper cites); it expands strictly by PIP count
// with no distance guidance. Kept as the baseline against which the
// template-first strategy's search-space reduction is measured (B2).
func Lee(dev *device.Device, sources []device.Track, sink device.Track, opt Options) (*Route, error) {
	return opt.lee().route(dev, sources, sink)
}

// route runs one search on a borrowed whole-device arena.
func (p policy) route(dev *device.Device, sources []device.Track, sink device.Track) (*Route, error) {
	ar := getArena(dev.NumTracks())
	defer putArena(ar)
	r, err := p.search(dev, ar, sources, sink, nil)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// estKey is what a heuristic table depends on: the policy's terms and the
// array's hex length and span.
type estKey struct {
	weight, hexCost, singleCost, tailCap, longCap int
	hexLen, n                                     int
}

// estimate returns the policy's heuristic by tap distance on dev, held in
// ar and rebuilt only when the policy's terms or the geometry change: the
// distance covered with hexes (the cheapest per-tile resource) plus a
// short single tail; with long lines any distance could in principle be a
// long hop plus a hex. The search is weighted (f = g + 2·est), trading
// optimality for focus — the paper's routers are explicitly greedy. A tap
// distance on the array is at most rows+cols.
func (p *policy) estimate(dev *device.Device, ar *arena) []int32 {
	k := estKey{p.weight, p.hexCost, p.singleCost, p.tailCap, p.longCap, dev.A.HexLen, dev.Rows + dev.Cols + 1}
	if ar.estFor == k {
		return ar.est
	}
	ar.est = slices.Grow(ar.est[:0], k.n)[:k.n]
	for d := range ar.est {
		tail := min(d%k.hexLen, p.tailCap)
		est := min(d/k.hexLen*p.hexCost+tail*p.singleCost, p.longCap)
		ar.est[d] = int32(p.weight * est)
	}
	ar.estFor = k
	return ar.est
}

// h is the heuristic at source track t: est, estimate's table, at t's tap
// distance to the sink, or 0 under uniform-cost search, which has no table.
func (p *policy) h(dev *device.Device, est []int32, t device.Track, sinkTile device.Coord) int32 {
	if p.weight == 0 {
		return 0
	}
	return est[dev.MinTapDistance(t, sinkTile)]
}

// hEdge is h at the target of edge e of a track canonical at tile at, given
// (dr, dc), the sink tile less at: the tap distance comes from to's table.
func (p *policy) hEdge(est []int32, to *device.SinkDist, e *device.Edge, dr, dc int) int32 {
	if p.weight == 0 {
		return 0
	}
	return est[to.Of(e, dr, dc)]
}

// surcharge is the congestion cost of occupying track i: its stamp and its
// congestion cell, and the self set only when other nets use the track.
func (p *policy) surcharge(i int32) int32 {
	c := p.cong
	if c.stamp[i] != c.epoch {
		return 0
	}
	l := c.load[i]
	users := l.present
	if users > 0 && p.self.has(i) {
		users-- // our own previous usage does not penalize us
	}
	s := l.history * historyFactor
	if users > 0 {
		s += users * p.presFac
	}
	return s
}

// search is the package's one best-first loop: from any of the source tracks
// to the sink, over PIPs onto tracks no net drives on the device (tracks
// other nets of a batch merely want are the surcharge's business), first
// arrival at the sink wins. Every router here is this loop under a policy.
// The route's PIPs are appended to dst: Route.PIPs is dst extended by them.
//
// An edge is read by its target's index and its target's tile offset: the
// box test adds the offset to the popped tile, and the heuristic reads the
// target's tap distance from a table by that offset. It is widened to a
// Track only to be tested against the avoid regions of a policy that has
// them.
func (p *policy) search(dev *device.Device, ar *arena, sources []device.Track, sink device.Track, dst []device.PIP) (Route, error) {
	if len(sources) == 0 {
		return Route{}, fmt.Errorf("maze: no sources: %w", ErrUnroutable)
	}
	sinkIdx, ok := dev.TrackIndexOK(sink)
	if !ok {
		return Route{}, fmt.Errorf("maze: sink %v is no track on the array: %w", sink, ErrUnroutable)
	}
	if dev.Driven(sinkIdx) {
		return Route{}, fmt.Errorf("maze: sink %s at (%d,%d) already in use: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	confined := p.cong != nil
	widen := confined || len(p.avoid) > 0
	var est []int32
	var to device.SinkDist
	if p.weight != 0 {
		est, to = p.estimate(dev, ar), dev.SinkDist(sinkTile)
	}

	ar.begin()
	for _, s := range sources {
		if s == sink {
			return Route{PIPs: dst}, nil // already connected
		}
		si, ok := dev.TrackIndexOK(s)
		if !ok {
			return Route{}, fmt.Errorf("maze: source %v is no track on the array: %w", s, ErrUnroutable)
		}
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, -1, 0)
		ar.push(heapItem{i: si, g: 0, f: p.h(dev, est, s, sinkTile)})
	}

	explored := 0
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.cells[it.i].g {
			continue // stale entry
		}
		explored++
		if explored > p.maxNodes {
			return Route{}, fmt.Errorf("maze: search exceeded %d states: %w", p.maxNodes, ErrUnroutable)
		}
		edges, at := dev.EdgesAt(it.i)
		bases := dev.BasesAt(at)
		dr, dc := sink.Row-at.Row, sink.Col-at.Col
		for j := range edges {
			e := &edges[j]
			ti := e.TargetIndex(&bases)
			if ti != sinkIdx && !p.pass[e.Kind] {
				continue
			}
			if dev.Driven(ti) {
				continue
			}
			if widen {
				if confined && !p.box.contains(e.TargetTile(at)) {
					continue
				}
				if len(p.avoid) > 0 && intrudes(dev, p.avoid, at.Row+int(e.PRow), at.Col+int(e.PCol), e.Target(at)) {
					continue
				}
			}
			ng := it.g + p.hop[e.Kind]
			if confined {
				ng += p.surcharge(ti)
			}
			c := &ar.cells[ti]
			if c.stamp == ar.epoch && c.g <= ng {
				continue
			}
			*c = cell{g: ng, prev: it.i, stamp: ar.epoch, via: uint16(j)}
			if ti == sinkIdx {
				// Goal: stop (greedy routing: first arrival wins).
				return Route{PIPs: ar.reconstruct(dst, dev, sinkIdx), Cost: int(ng), Explored: explored}, nil
			}
			ar.push(heapItem{i: ti, g: ng, f: ng + p.hEdge(est, &to, e, dr, dc)})
		}
	}
	return Route{}, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}
