package maze

import (
	"runtime"
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
