//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// count below holds only without it.

package jbits

import (
	"runtime/debug"
	"testing"
)

// TestRecycleFrameAllocatesNothing: a warm read-and-recycle cycle reuses
// the pooled buffer and the box it travels in.
func TestRecycleFrameAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	RecycleFrame(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() { RecycleFrame(frameBuf(32)) }); n != 0 {
		t.Errorf("frameBuf + RecycleFrame allocates %v objects, want 0", n)
	}
}
