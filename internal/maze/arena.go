package maze

import (
	"slices"
	"sync"

	"repro/internal/device"
)

// Scratch objects (arenas, mark sets, congestion tables) are pooled in
// three plain pools. Every request is device-sized — negotiation scopes
// index by device.TrackIndex like the single-net search — so an object
// taken for one device serves the next; ensure grows it for a larger one
// and never shrinks it.
var (
	arenaPool   sync.Pool
	markPool    sync.Pool
	congPool    sync.Pool
	scratchPool sync.Pool // the Scratch a package-level replay or template call borrows
)

// pooled takes an object from p, or a fresh one when the pool is empty.
func pooled[T any](p *sync.Pool) *T {
	if v, ok := p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// The search arena is the zero-steady-state-allocation scratch space behind
// every maze search. The seed implementation allocated three fresh
// map[device.Key] tables and one boxed heap node per frontier push on every
// call; the arena replaces the maps with one flat slice of cells indexed by
// the compact device.TrackIndex and the boxed nodes with a value heap, and
// is recycled through a sync.Pool so steady-state searches allocate nothing.
//
// Staleness is handled by epoch stamping: begin() bumps the generation, and
// a cell's g/prev/via values are only meaningful when its stamp equals the
// current epoch — so "clearing" the table between searches is O(1).
//
// Every table here, the mark sets and the congestion table are as narrow as
// their values allow: they are device-sized and a process keeps several
// (one set per negotiation worker), so each byte per track is 1.0 MB on a
// 64×96 array. Costs are int32 — every hop, heuristic and surcharge term is
// an integer — so a cell is 12 bytes and a heap item 12 bytes. A track's
// search state is one cell, so the loop's seen-and-cheaper test and its
// visit touch one cache line. Stamps are 16 bits, paying one O(n) clear
// when the epoch wraps, every 65 535 generations.

// heapItem is one frontier entry of the best-first search: a track by its
// device.TrackIndex, which addresses both the arena and the adjacency.
// Items are values, not pointers, and duplicates are pushed instead of
// decrease-key; stale pops are skipped by the g-check in the search loop.
type heapItem struct {
	i    int32
	g, f int32
}

// cell is the search state of one track.
type cell struct {
	g     int32  // best path cost found so far
	prev  int32  // predecessor track index; -1 for search sources
	stamp uint16 // epoch of the search that wrote g, prev and via
	via   uint16 // ordinal of the edge, in EdgesAt(prev) order, that reached the track
}

// arena is the reusable scratch state of one search.
type arena struct {
	epoch uint16
	cells []cell     // by track index
	heap  []heapItem // frontier backing storage, reused across searches

	// est is the weighted heuristic by tap distance, 0..rows+cols, for the
	// policy and geometry in estFor; see policy.estimate.
	est    []int32
	estFor estKey
}

// getArena returns a pooled arena ready for a fresh search over n tracks.
func getArena(n int) *arena {
	ar := pooled[arena](&arenaPool)
	ar.ensure(n)
	ar.begin()
	return ar
}

func putArena(ar *arena) { arenaPool.Put(ar) }

// ensure sizes the table for n tracks. Growing reallocates (zeroed stamps
// restart the epoch); shrinking never happens — a large-device arena serves
// small devices fine.
func (ar *arena) ensure(n int) {
	if len(ar.cells) >= n {
		return
	}
	ar.cells = make([]cell, n)
	ar.epoch = 0
}

// begin opens a new search generation: every previous mark becomes stale.
func (ar *arena) begin() {
	ar.epoch++
	if ar.epoch == 0 { // wrapped: pay one O(n) clear
		for i := range ar.cells {
			ar.cells[i].stamp = 0
		}
		ar.epoch = 1
	}
	ar.heap = ar.heap[:0]
}

// seen reports whether track i was reached in this generation.
func (ar *arena) seen(i int32) bool { return ar.cells[i].stamp == ar.epoch }

// visit records the best-known path to track i: reached at cost g over
// edge via of track prev. A track has at most a few hundred edges (a long
// line's taps along its row), so the ordinal fits 16 bits.
func (ar *arena) visit(i int32, g int32, prev int32, via int) {
	ar.cells[i] = cell{g: g, prev: prev, stamp: ar.epoch, via: uint16(via)}
}

// reconstruct walks prev links from the sink back to a source and appends
// the PIPs to dst in source-to-sink order: the path is the only thing that
// outlives the arena, so its caller says where it goes.
func (ar *arena) reconstruct(dst []device.PIP, dev *device.Device, sink int32) []device.PIP {
	n := 0
	for k := sink; ar.cells[k].prev >= 0; k = ar.cells[k].prev {
		n++
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for k := sink; ar.cells[k].prev >= 0; k = ar.cells[k].prev {
		n--
		c := &ar.cells[k]
		edges, at := dev.EdgesAt(c.prev)
		dst[base+n] = edges[c.via].PIP(at)
	}
	return dst
}

// push and pop implement a binary min-heap on f with exactly the element
// placement of container/heap, so search behaviour (tie-breaking included)
// matches the seed implementation without its per-node allocations. Where
// container/heap swaps the moving item with each parent or child it passes,
// these move a hole and write the item once, where it comes to rest.
func (ar *arena) push(it heapItem) {
	h := append(ar.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.f < h[i].f) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	ar.heap = h
}

// pop removes the root: container/heap swaps the last item into the root
// and sifts it down over the rest, which is where x goes here.
func (ar *arena) pop() heapItem {
	h := ar.heap
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].f < h[j].f {
			j = j2
		}
		if !(h[j].f < x.f) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	ar.heap = h[:n]
	return top
}

// markSet is a pooled epoch-stamped membership set over track indices,
// used by the negotiation workers to test "does this net already use that
// track" in O(1) without per-net map allocations.
type markSet struct {
	n     int
	epoch uint16
	stamp []uint16
}

func getMarkSet(n int) *markSet {
	m := pooled[markSet](&markPool)
	if m.n < n {
		m.stamp = make([]uint16, n)
		m.epoch = 0
		m.n = n
	}
	return m
}

func putMarkSet(m *markSet) { markPool.Put(m) }

// reset empties the set in O(1).
func (m *markSet) reset() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 1
	}
}

func (m *markSet) add(i int32)      { m.stamp[i] = m.epoch }
func (m *markSet) has(i int32) bool { return m.stamp[i] == m.epoch }
