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
	arenaPool sync.Pool
	markPool  sync.Pool
	congPool  sync.Pool
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
// call; the arena replaces the maps with flat slices indexed by the compact
// device.TrackIndex and the boxed nodes with a value heap, and is recycled
// through a sync.Pool so steady-state searches allocate nothing.
//
// Staleness is handled by epoch stamping: begin() bumps the generation, and
// a slot's g/prev/via values are only meaningful when its stamp equals the
// current epoch — so "clearing" the tables between searches is O(1).
//
// Every table here, the mark sets and the congestion table are as narrow as
// their values allow: they are device-sized and a process keeps several
// (one set per negotiation worker), so each byte per track is 1.0 MB on a
// 64×96 array. Costs are int32 — every hop, heuristic and surcharge term is
// an integer — so an arena is 12 bytes a track and a heap item 12 bytes.
// Stamps are 16 bits, paying one O(n) clear when the epoch wraps, every
// 65 535 generations.

// heapItem is one frontier entry of the best-first search: a track by its
// device.TrackIndex, which addresses both the arena and the adjacency.
// Items are values, not pointers, and duplicates are pushed instead of
// decrease-key; stale pops are skipped by the g-check in the search loop.
type heapItem struct {
	i    int32
	g, f int32
}

// arena is the reusable scratch state of one search.
type arena struct {
	n     int
	epoch uint16
	stamp []uint16   // epoch mark per track index
	g     []int32    // best path cost found so far
	prev  []int32    // predecessor track index; -1 for search sources
	via   []uint16   // ordinal of the edge, in EdgesAt(prev) order, that reached the track
	heap  []heapItem // frontier backing storage, reused across searches
}

// getArena returns a pooled arena ready for a fresh search over n tracks.
func getArena(n int) *arena {
	ar := pooled[arena](&arenaPool)
	ar.ensure(n)
	ar.begin()
	return ar
}

func putArena(ar *arena) { arenaPool.Put(ar) }

// ensure sizes the tables for n tracks. Growing reallocates (zeroed stamps
// restart the epoch); shrinking never happens — a large-device arena serves
// small devices fine.
func (ar *arena) ensure(n int) {
	if ar.n >= n {
		return
	}
	ar.stamp = make([]uint16, n)
	ar.g = make([]int32, n)
	ar.prev = make([]int32, n)
	ar.via = make([]uint16, n)
	ar.epoch = 0
	ar.n = n
}

// begin opens a new search generation: every previous mark becomes stale.
func (ar *arena) begin() {
	ar.epoch++
	if ar.epoch == 0 { // wrapped: pay one O(n) clear
		for i := range ar.stamp {
			ar.stamp[i] = 0
		}
		ar.epoch = 1
	}
	ar.heap = ar.heap[:0]
}

// seen reports whether track i was reached in this generation.
func (ar *arena) seen(i int32) bool { return ar.stamp[i] == ar.epoch }

// visit records the best-known path to track i: reached at cost g over
// edge via of track prev. A track has at most a few hundred edges (a long
// line's taps along its row), so the ordinal fits 16 bits.
func (ar *arena) visit(i int32, g int32, prev int32, via int) {
	ar.stamp[i] = ar.epoch
	ar.g[i] = g
	ar.prev[i] = prev
	ar.via[i] = uint16(via)
}

// reconstruct walks prev links from the sink back to a source and appends
// the PIPs to dst in source-to-sink order: the path is the only thing that
// outlives the arena, so its caller says where it goes.
func (ar *arena) reconstruct(dst []device.PIP, dev *device.Device, sink int32) []device.PIP {
	n := 0
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n++
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n--
		edges, at := dev.EdgesAt(ar.prev[k])
		dst[base+n] = edges[ar.via[k]].PIP(at)
	}
	return dst
}

// push and pop implement a binary min-heap on f with exactly the element
// movement of container/heap, so search behaviour (tie-breaking included)
// matches the seed implementation without its per-node allocations.
func (ar *arena) push(it heapItem) {
	ar.heap = append(ar.heap, it)
	ar.siftUp(len(ar.heap) - 1)
}

func (ar *arena) pop() heapItem {
	h := ar.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	ar.siftDown(0, n)
	it := h[n]
	ar.heap = h[:n]
	return it
}

func (ar *arena) siftUp(j int) {
	h := ar.heap
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (ar *arena) siftDown(i0, n int) {
	h := ar.heap
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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
