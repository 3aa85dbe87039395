//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so the
// count below holds only without it.

package client

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/jbits"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// TestPayloadPoolAllocatesNothing: a warm read of a response payload into
// a pooled buffer, as roundTrip reads it, and its put back reuse the
// buffer and the box it travels in.
func TestPayloadPoolAllocatesNothing(t *testing.T) {
	resp := protocol.Response{ID: 7, Epoch: 1, FrameN: 2,
		Frames: bytes.Repeat([]byte{0x5A}, 96)}
	head, raw, err := v3.AppendResponse(nil, protocol.OpRoute, &resp)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	wire := append(append([]byte(nil), head...), raw...)
	var hdr [v3.HeaderSize]byte
	rd := bytes.NewReader(wire)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	jbits.RecycleFrame(make([]byte, 64))
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		h, err := v3.ReadHeader(rd, &hdr)
		if err != nil {
			t.Fatalf("ReadHeader: %v", err)
		}
		payload, err := v3.ReadPayloadInto(rd, h, jbits.FrameBuf(int(h.Len)))
		if err != nil || len(payload) != int(h.Len) || h.Len == 0 {
			t.Fatalf("ReadPayloadInto: %d of %d bytes, %v", len(payload), h.Len, err)
		}
		jbits.RecycleFrame(payload)
	}); n != 0 {
		t.Errorf("payload take + read + put allocates %v objects, want 0", n)
	}
}
