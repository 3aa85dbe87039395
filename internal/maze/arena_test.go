package maze

import (
	"container/heap"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestScratchSizes pins the width of the search scratch, which every search
// and every negotiation worker holds one of: a frontier entry is 12 bytes,
// an arena 12 bytes a track, and a 64×96 Virtex array has one track index
// per canonical wire name of each tile (164 of 268), so an arena there is
// 11.5 MiB. A table widened, or an index space that counts alias names
// again, fails here.
func TestScratchSizes(t *testing.T) {
	if got := unsafe.Sizeof(heapItem{}); got != 12 {
		t.Errorf("heapItem is %d bytes, want 12", got)
	}
	dev, err := device.New(arch.NewVirtex(), 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	n := dev.NumTracks()
	if n != 1_007_616 {
		t.Errorf("64x96 Virtex has %d track indices, want 1 007 616", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ar := new(arena)
	ar.ensure(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ar)
	// Large allocations round up to whole pages, well under a byte a track.
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); per < 12 || per >= 12.5 {
		t.Errorf("an arena costs %.2f bytes a track, want 12", per)
	}
}

// refHeap is container/heap's min-heap on f, the placement the arena's heap
// keeps.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap: the arena's heap holds every item where
// container/heap would, after every push and pop of a seeded script whose
// few distinct keys make ties the rule, so the search pops equal-f items
// in the same order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ar := new(arena)
	var ref refHeap
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			it := heapItem{i: int32(step), g: int32(rng.Intn(4)), f: int32(rng.Intn(8))}
			ar.push(it)
			heap.Push(&ref, it)
		} else if got, want := ar.pop(), heap.Pop(&ref).(heapItem); got != want {
			t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, got, want)
		}
		if !slices.Equal(ar.heap, ref) {
			t.Fatalf("step %d: placement differs from container/heap", step)
		}
	}
}
