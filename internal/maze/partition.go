package maze

import (
	"cmp"
	"slices"

	"repro/internal/device"
)

// Spatial partitioning for negotiated batch routing: nets whose inflated
// bounding boxes never meet can never compete for a track, so they
// negotiate with no congestion interaction.
//
// The decomposition is *exact*, not approximate. Every net's search is
// confined to its inflated bounding box (in both partition modes — see
// negotiate.go), and a net can only ever occupy tracks whose canonical
// tile lies inside that box. A scope is a connected component of box
// overlap: two nets share a scope when a chain of nets with pairwise
// intersecting boxes joins them, so nets in different scopes have disjoint
// boxes. A track has a single canonical tile, so two nets in different
// scopes cannot share any track, their congestion and keeper trajectories
// never interact, and running each scope's negotiation loop independently
// is algebraically identical to running one global loop over all nets.
// Partitioning is therefore pure bookkeeping: bitstreams stay
// byte-identical for any worker count. In the worst case (one net
// overlapping everything) the batch is a single scope, which is exactly
// the unpartitioned global pass.

// rect is an inclusive tile rectangle.
type rect struct {
	r0, c0, r1, c1 int
}

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
	nets    []int // global net indices, ascending: a window of the scratch's members
	off     int   // where nets starts in members: the scope's window of every per-net list
	reroute []int // places in nets rerouted this iteration, none once converged
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

// buildScopes groups the batch into s's scopes and returns them: split,
// the connected components of box overlap, and otherwise the whole batch
// as one scope, the global loop. boxes[i] is net i's inflated bounding box.
func (s *negScratch) buildScopes(boxes []rect, split bool) []scope {
	n := len(boxes)
	uf, members := &s.uf, fit(s.members, n)
	uf.parent, s.members = fit(uf.parent, n), members
	for i := range members {
		members[i], uf.parent[i] = i, i // singletons
		if !split {
			uf.parent[i] = 0
		}
	}
	if split {
		// Sort and sweep on the top row: once the boxes are in top-row
		// order, the boxes whose rows meet box i's below it are those that
		// follow it and start no lower than its bottom row. Two nets with
		// one parent are in one component already: most pairs in a knot.
		slices.SortFunc(members, func(a, b int) int { return cmp.Compare(boxes[a].r0, boxes[b].r0) })
		for k, i := range members {
			b := boxes[i]
			for _, j := range members[k+1:] {
				if boxes[j].r0 > b.r1 {
					break
				}
				if uf.parent[j] != uf.parent[i] && b.intersects(boxes[j]) {
					uf.union(i, j)
				}
			}
		}
	}

	// Materialize components as scopes, each a window of members (free
	// again now that the sweep is done). A component's root is its least
	// net, so grouping by root, then net, leaves each scope's nets ascending.
	for i := range members {
		members[i], uf.parent[i] = i, uf.find(i)
	}
	slices.SortFunc(members, func(a, b int) int { return cmp.Or(cmp.Compare(uf.parent[a], uf.parent[b]), cmp.Compare(a, b)) })
	scopes := s.scopes[:0]
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi = lo; hi < n && uf.parent[members[hi]] == uf.parent[members[lo]]; hi++ {
		}
		scopes = append(scopes, scope{nets: members[lo:hi:hi], off: lo})
	}
	// Largest scopes first, so an iteration's job list starts with the
	// reroutes of the most contended scope; first-net tie-break keeps the
	// order deterministic.
	slices.SortFunc(scopes, func(a, b scope) int {
		return cmp.Or(cmp.Compare(len(b.nets), len(a.nets)), cmp.Compare(a.nets[0], b.nets[0]))
	})
	s.scopes = scopes
	return scopes
}
