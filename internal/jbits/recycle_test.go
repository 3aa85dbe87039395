//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// counts below hold only without it.

package jbits

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// TestRecycleFrameAllocatesNothing: the one frame-buffer pool reuses the
// buffer and the box it travels in, whether a buffer is taken bare (a
// worker's dirty frames, a client's response payload) or by a frame read
// into a kept header scratch, as the serve loop and RemoteBoard read.
func TestRecycleFrameAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	RecycleFrame(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() { RecycleFrame(FrameBuf(32)) }); n != 0 {
		t.Errorf("FrameBuf + RecycleFrame allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { RecycleFrame(append(FrameBuf(0), 1)) }); n != 0 {
		t.Errorf("an appended-to FrameBuf(0) + RecycleFrame allocates %v objects, want 0", n)
	}

	var wire bytes.Buffer
	if err := WriteFrame(&wire, opPartial, []byte("dirty frames")); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()
	var hdr [5]byte
	rd := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		_, p, err := readFrame(rd, &hdr)
		if err != nil || string(p) != "dirty frames" {
			t.Fatalf("readFrame: %q, %v", p, err)
		}
		RecycleFrame(p)
	}); n != 0 {
		t.Errorf("readFrame + RecycleFrame allocates %v objects, want 0", n)
	}
}
