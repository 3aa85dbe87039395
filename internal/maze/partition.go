package maze

import (
	"cmp"
	"slices"

	"repro/internal/device"
)

// Spatial partitioning for negotiated batch routing — ROADMAP item 3,
// after the recursive-bisection parallel routers (PAPERS.md, arxiv
// 2407.00009): nets whose bounding boxes don't overlap can never compete
// for a track, so they negotiate fully concurrently with no congestion
// interaction and no shared iteration barrier.
//
// The decomposition is *exact*, not approximate. Every net's search is
// confined to its inflated bounding box (in both partition modes — see
// negotiate.go), and a net can only ever occupy tracks whose canonical
// tile lies inside that box. Nets are grouped into scopes such that nets
// in different scopes have pairwise-disjoint boxes: a track has a single
// canonical tile, so two nets in different scopes cannot share any track,
// their congestion and keeper trajectories never interact, and running
// each scope's negotiation loop independently is algebraically identical
// to running one global loop over all nets. Partitioning is therefore
// pure scheduling + locality: bitstreams stay byte-identical for any
// worker count and any partition depth.
//
// Scope formation is recursive bisection followed by a conservative
// merge. The device rectangle is cut along the lighter-loaded axis (the
// cut crossed by the fewest net boxes, ties broken deterministically),
// nets fully inside a side descend into it, and nets crossing the cut
// are set aside. After bisection bottoms out, every crossing net is
// unioned with each net whose box intersects its own, which glues any
// transitively-overlapping groups into one scope. Over-merging is always
// safe — it can only reduce parallelism, never change the result; in the
// worst case (one net overlapping everything) the batch collapses into a
// single scope, which is exactly the pre-partitioning global pass.

// rect is an inclusive tile rectangle.
type rect struct {
	r0, c0, r1, c1 int
}

func (a rect) rows() int { return a.r1 - a.r0 + 1 }
func (a rect) cols() int { return a.c1 - a.c0 + 1 }

func (a rect) intersects(b rect) bool {
	return a.r0 <= b.r1 && b.r0 <= a.r1 && a.c0 <= b.c1 && b.c0 <= a.c1
}

func (a rect) union(b rect) rect {
	if b.r0 < a.r0 {
		a.r0 = b.r0
	}
	if b.c0 < a.c0 {
		a.c0 = b.c0
	}
	if b.r1 > a.r1 {
		a.r1 = b.r1
	}
	if b.c1 > a.c1 {
		a.c1 = b.c1
	}
	return a
}

// contains reports whether tile (r,c) is inside the rectangle.
func (a rect) contains(r, c int) bool {
	return r >= a.r0 && r <= a.r1 && c >= a.c0 && c <= a.c1
}

// netBox is the net's inflated bounding box: the bbox of its source and
// sink tiles grown by margin on every side and clamped to the device.
// The margin buys the search detour room and covers the canonical-origin
// offset of directional wires (a hex used eastward through the box has
// its canonical tile up to HexLen tiles west of it).
func netBox(dev *device.Device, src device.Track, sinks []device.Track, margin int) rect {
	b := rect{r0: src.Row, c0: src.Col, r1: src.Row, c1: src.Col}
	for _, s := range sinks {
		b = b.union(rect{r0: s.Row, c0: s.Col, r1: s.Row, c1: s.Col})
	}
	b.r0 -= margin
	b.c0 -= margin
	b.r1 += margin
	b.c1 += margin
	if b.r0 < 0 {
		b.r0 = 0
	}
	if b.c0 < 0 {
		b.c0 = 0
	}
	if b.r1 > dev.Rows-1 {
		b.r1 = dev.Rows - 1
	}
	if b.c1 > dev.Cols-1 {
		b.c1 = dev.Cols - 1
	}
	return b
}

// scope is one independently negotiated group of nets, with its loop's
// reroute list. Its members' boxes are disjoint from every other scope's, so
// its searches and its merge touch their own slots of the call's
// device-indexed tables.
type scope struct {
	nets     []int // global net indices, ascending: a window of the scratch's members
	off      int   // where nets starts in members: the scope's window of every per-net list
	crossing int   // members that crossed a bisection cut
	reroute  []int // places in nets rerouted this iteration, none once converged
}

// unionFind is a plain path-halving union-find over net indices.
type unionFind struct{ parent []int }

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if rb < ra {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// bisection is one device region still to bisect, with the nets inside it.
type bisection struct {
	rc    rect
	nets  []int
	depth int
}

// cutStats describes one candidate bisection of a node.
type cutStats struct {
	axis     int // 0 = cut between rows, 1 = cut between columns
	pos      int // first row/col of the right/lower side
	crossing int
	balance  int // |left - right| net count
	ok       bool
}

// bestCutOnAxis scans every cut position on one axis and returns the one
// crossing the fewest boxes, breaking ties toward the most balanced
// split and then the lower position. Cuts that leave one side empty are
// still considered (they can trim dead space) but only if they cross
// fewer boxes than a balanced alternative would.
//
// A box is left of the cut at p when it ends before p, and right of it when
// it starts at p or later, so the scan counts the boxes ending and starting
// at each position once, in s's scratch, and reads both sides of every cut
// off running sums. A box's ends are clamped to the region first: one that
// ends before it is left of every cut, one that starts past it right of
// none.
func (s *negScratch) bestCutOnAxis(rc rect, boxes []rect, nets []int, axis int) cutStats {
	lo, hi := rc.r0, rc.r1
	if axis == 1 {
		lo, hi = rc.c0, rc.c1
	}
	span := hi - lo + 1
	s.cutCount = fit(s.cutCount, 2*span)
	clear(s.cutCount)
	ends, starts := s.cutCount[:span], s.cutCount[span:]
	for _, i := range nets {
		b := boxes[i]
		b0, b1 := b.r0, b.r1
		if axis == 1 {
			b0, b1 = b.c0, b.c1
		}
		ends[min(max(b1, lo), hi)-lo]++
		starts[min(max(b0, lo), hi)-lo]++
	}
	best := cutStats{axis: axis}
	left, notRight := 0, 0
	for p := lo + 1; p <= hi; p++ {
		left += ends[p-1-lo]       // boxes with b1 < p
		notRight += starts[p-1-lo] // boxes with b0 < p
		right := len(nets) - notRight
		crossing := len(nets) - left - right
		bal := left - right
		if bal < 0 {
			bal = -bal
		}
		cand := cutStats{axis: axis, pos: p, crossing: crossing, balance: bal, ok: true}
		if !best.ok || cand.crossing < best.crossing ||
			(cand.crossing == best.crossing && cand.balance < best.balance) {
			best = cand
		}
	}
	return best
}

// bestCut picks the lighter-loaded axis: the axis whose best cut crosses
// fewer net boxes; ties go to the longer dimension, then to rows. A cut
// that crosses every net is useless and reported as not ok.
func (s *negScratch) bestCut(rc rect, boxes []rect, nets []int) cutStats {
	row := s.bestCutOnAxis(rc, boxes, nets, 0)
	col := s.bestCutOnAxis(rc, boxes, nets, 1)
	best := row
	switch {
	case !row.ok:
		best = col
	case !col.ok:
		best = row
	case col.crossing < row.crossing:
		best = col
	case col.crossing == row.crossing && rc.cols() > rc.rows():
		best = col
	}
	if best.ok && best.crossing >= len(nets) {
		best.ok = false
	}
	return best
}

// buildScopes partitions the batch into s's scopes. It returns the scopes
// (each a group of nets whose boxes are disjoint from every other scope's),
// the number of leaf regions that received nets, and the number of
// cut-crossing nets. boxes[i] is net i's inflated bounding box.
func (s *negScratch) buildScopes(dev *device.Device, boxes []rect, maxDepth int) (scopes []scope, regions, crossing int) {
	n := len(boxes)
	uf, members := &s.uf, fit(s.members, n)
	uf.parent, s.members = fit(uf.parent, n), members
	for i := range members {
		members[i], uf.parent[i] = i, i // singletons
	}
	crossers := s.crossers[:0]
	stack := append(s.stack[:0], bisection{rc: rect{0, 0, dev.Rows - 1, dev.Cols - 1}, nets: members})
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(nd.nets) == 0 {
			continue
		}
		cut := cutStats{}
		if nd.depth < maxDepth && len(nd.nets) > 1 {
			cut = s.bestCut(nd.rc, boxes, nd.nets)
		}
		if !cut.ok { // a leaf
			regions++
			for _, i := range nd.nets[1:] {
				uf.union(nd.nets[0], i)
			}
			continue
		}
		lrc, rrc := nd.rc, nd.rc
		if cut.axis == 0 {
			lrc.r1, rrc.r0 = cut.pos-1, cut.pos
		} else {
			lrc.c1, rrc.c0 = cut.pos-1, cut.pos
		}
		// Split nd.nets in place, so a deeper bisection allocates nothing
		// more: left side first, then the crossers, then the right side.
		// Net order within a node decides nothing downstream.
		nets := nd.nets
		lo, hi := 0, len(nets)
		for k := 0; k < hi; {
			b := boxes[nets[k]]
			b0, b1 := b.r0, b.r1
			if cut.axis == 1 {
				b0, b1 = b.c0, b.c1
			}
			switch {
			case b1 < cut.pos:
				nets[lo], nets[k] = nets[k], nets[lo]
				lo++
				k++
			case b0 >= cut.pos:
				hi--
				nets[hi], nets[k] = nets[k], nets[hi]
			default:
				k++
			}
		}
		crossers = append(crossers, nets[lo:hi]...)
		crossing += hi - lo
		stack = append(stack,
			bisection{rc: rrc, nets: nets[hi:], depth: nd.depth + 1},
			bisection{rc: lrc, nets: nets[:lo], depth: nd.depth + 1})
	}
	s.stack, s.crossers = stack, crossers

	// Conservative exactness merge: a crossing net joins the scope of
	// every net whose box its own intersects (and transitively, via the
	// union-find, everything those touch).
	s.crossed = fit(s.crossed, n)
	clear(s.crossed)
	for _, ci := range crossers {
		s.crossed[ci] = true
		for j := 0; j < n; j++ {
			if j != ci && boxes[ci].intersects(boxes[j]) {
				uf.union(ci, j)
			}
		}
	}

	// Materialize components as scopes, each a window of members (free
	// again now that bisection is done). A component's root is its least
	// net, so grouping by root, then net, leaves each scope's nets ascending.
	for i := range members {
		members[i], uf.parent[i] = i, uf.find(i)
	}
	slices.SortFunc(members, func(a, b int) int { return cmp.Or(cmp.Compare(uf.parent[a], uf.parent[b]), cmp.Compare(a, b)) })
	scopes = s.scopes[:0]
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi = lo; hi < n && uf.parent[members[hi]] == uf.parent[members[lo]]; hi++ {
		}
		sc := scope{nets: members[lo:hi:hi], off: lo}
		for _, i := range sc.nets {
			if s.crossed[i] {
				sc.crossing++
			}
		}
		scopes = append(scopes, sc)
	}
	// Largest scopes first, so an iteration's job list starts with the
	// reroutes of the most contended scope; first-net tie-break keeps the
	// order deterministic.
	slices.SortFunc(scopes, func(a, b scope) int {
		return cmp.Or(cmp.Compare(len(b.nets), len(a.nets)), cmp.Compare(a.nets[0], b.nets[0]))
	})
	s.scopes = scopes
	return scopes, regions, crossing
}
