//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// count below holds only without it.

package client

import (
	"runtime/debug"
	"testing"
)

// TestPayloadPoolAllocatesNothing: a warm take-and-put of a response
// payload buffer reuses the buffer and the box it travels in.
func TestPayloadPoolAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	putPayload(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() { putPayload(append(takePayload()[:0], 1)) }); n != 0 {
		t.Errorf("takePayload + putPayload allocates %v objects, want 0", n)
	}
}
