package maze

import (
	"math/bits"
	"sync"

	"repro/internal/arch"
	"repro/internal/device"
)

// Scratch objects (arenas, mark sets, congestion tables) are pooled per
// power-of-two size class rather than in one mixed pool. Partition-scoped
// negotiation requests tiny region-local tables while a global pass over
// a 256×384 device requests tens of millions of slots; a mixed pool would
// hand a region-sized object to the global pass (forcing a giant
// reallocation every time) and park grid-sized objects on region work.
// Classing by requested capacity keeps reallocation bounded: an object
// grows at most once within its class and then stays there.

const poolClasses = 36 // class 35 covers every int32-indexable size

type sizedPools [poolClasses]sync.Pool

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func poolGet[T any](p *sizedPools, n int, fresh func() T) T {
	if v := p[sizeClass(n)].Get(); v != nil {
		return v.(T)
	}
	return fresh()
}

func poolPut[T any](p *sizedPools, n int, v T) { p[sizeClass(n)].Put(v) }

var (
	arenaPools sizedPools
	markPools  sizedPools
	congPools  sizedPools
)

// The search arena is the zero-steady-state-allocation scratch space behind
// every maze search. The seed implementation allocated three fresh
// map[device.Key] tables and one boxed heap node per frontier push on every
// call; the arena replaces the maps with flat slices indexed by the compact
// device.TrackIndex and the boxed nodes with a value heap, and is recycled
// through a sync.Pool so steady-state searches allocate nothing.
//
// Staleness is handled by epoch stamping: begin() bumps the generation, and
// a slot's g/via/prev values are only meaningful when its stamp equals the
// current epoch — so "clearing" the tables between searches is O(1).

// heapItem is one frontier entry of the best-first search. Items are
// values, not pointers, and duplicates are pushed instead of decrease-key;
// stale pops are skipped by the g-check in the search loop. ti indexes the
// arena; gi is the device's TrackIndex, which addresses the adjacency. The
// two differ only in a partition scope, whose arena is region-sized.
type heapItem struct {
	ti, gi int32
	g, f   float64
}

// hop is a PIP at a third the width of a device.PIP: the arena holds one
// per track of the device (or of the partition scope), most of them never
// read back.
type hop struct {
	row, col, from, to uint16
}

// hopOf packs the PIP of an edge of a track canonical at tile at.
func hopOf(e device.Edge, at device.Coord) hop {
	return hop{uint16(at.Row + int(e.PRow)), uint16(at.Col + int(e.PCol)), e.From, e.To}
}

func (h hop) pip() device.PIP {
	return device.PIP{Row: int(h.row), Col: int(h.col), From: arch.Wire(h.from), To: arch.Wire(h.to)}
}

// arena is the reusable scratch state of one search.
type arena struct {
	n     int
	epoch uint32
	stamp []uint32   // epoch mark per track index
	g     []float64  // best path cost found so far
	via   []hop      // PIP that reached the track
	prev  []int32    // predecessor track index; -1 for search sources
	heap  []heapItem // frontier backing storage, reused across searches
}

// getArena returns a pooled arena ready for a fresh search over n tracks.
func getArena(n int) *arena {
	ar := poolGet(&arenaPools, n, func() *arena { return new(arena) })
	ar.ensure(n)
	ar.begin()
	return ar
}

func putArena(ar *arena) { poolPut(&arenaPools, ar.n, ar) }

// ensure sizes the tables for n tracks. Growing reallocates (zeroed stamps
// restart the epoch); shrinking never happens — a large-device arena serves
// small devices fine.
func (ar *arena) ensure(n int) {
	if ar.n >= n {
		return
	}
	ar.stamp = make([]uint32, n)
	ar.g = make([]float64, n)
	ar.via = make([]hop, n)
	ar.prev = make([]int32, n)
	ar.epoch = 0
	ar.n = n
}

// begin opens a new search generation: every previous mark becomes stale.
func (ar *arena) begin() {
	ar.epoch++
	if ar.epoch == 0 { // wrapped: pay one O(n) clear every 2^32 searches
		for i := range ar.stamp {
			ar.stamp[i] = 0
		}
		ar.epoch = 1
	}
	ar.heap = ar.heap[:0]
}

// seen reports whether track i was reached in this generation.
func (ar *arena) seen(i int32) bool { return ar.stamp[i] == ar.epoch }

// visit records the best-known path to track i.
func (ar *arena) visit(i int32, g float64, via hop, prev int32) {
	ar.stamp[i] = ar.epoch
	ar.g[i] = g
	ar.via[i] = via
	ar.prev[i] = prev
}

// reconstruct walks prev links from the sink back to a source and returns
// the PIPs in source-to-sink order. Only the result slice is allocated —
// it outlives the arena.
func (ar *arena) reconstruct(sink int32) []device.PIP {
	n := 0
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n++
	}
	pips := make([]device.PIP, n)
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n--
		pips[n] = ar.via[k].pip()
	}
	return pips
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
	epoch uint32
	stamp []uint32
}

func getMarkSet(n int) *markSet {
	m := poolGet(&markPools, n, func() *markSet { return new(markSet) })
	if m.n < n {
		m.stamp = make([]uint32, n)
		m.epoch = 0
		m.n = n
	}
	return m
}

func putMarkSet(m *markSet) { poolPut(&markPools, m.n, m) }

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
