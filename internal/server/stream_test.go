//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// count below holds only without it.

package server

import (
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/jbits"
)

// TestStreamPoolAllocatesNothing: a warm take-and-put of a frame stream
// buffer — serialized as shipDirty serializes a response's dirty frames,
// recycled as the connection handler recycles it once they are on the
// wire — reuses the buffer and the box it travels in.
func TestStreamPoolAllocatesNothing(t *testing.T) {
	d, err := device.New(arch.NewVirtex(), 12, 12)
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	if err := d.SetLUT(3, 4, 0, 0xBEEF); err != nil {
		t.Fatalf("SetLUT: %v", err)
	}
	if d.DirtyFrameCount() == 0 {
		t.Fatal("SetLUT left no dirty frame to ship")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	jbits.RecycleFrame(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() {
		stream, err := d.AppendPartialConfig(jbits.FrameBuf(0))
		if err != nil || len(stream) == 0 {
			t.Fatalf("AppendPartialConfig: %d bytes, %v", len(stream), err)
		}
		jbits.RecycleFrame(stream)
	}); n != 0 {
		t.Errorf("stream take + AppendPartialConfig + put allocates %v objects, want 0", n)
	}
}
