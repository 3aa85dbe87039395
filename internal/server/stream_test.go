//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// count below holds only without it.

package server

import (
	"runtime/debug"
	"testing"
)

// TestStreamPoolAllocatesNothing: a warm take-and-put of a frame stream
// buffer reuses the buffer and the box it travels in.
func TestStreamPoolAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	putStream(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() { putStream(append(takeStream(), 1)) }); n != 0 {
		t.Errorf("takeStream + putStream allocates %v objects, want 0", n)
	}
}
