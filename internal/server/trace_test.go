package server

import (
	"context"
	"testing"

	"repro/internal/arch"
)

// TestTraceAllocationsDoNotGrowWithSinks: a served trace answers with the
// net and one slice each of its sinks and its PIPs, so a net of eight sinks
// costs the objects a net of one does.
func TestTraceAllocationsDoNotGrowWithSinks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := newTestWorker(t)
	ctx := context.Background()
	one, fan := pinMsg(12, 3, arch.S0X), pinMsg(4, 4, arch.S0X)
	route := &Request{Op: "route", Session: "dev", Source: &fan}
	for i := 0; i < 8; i++ {
		route.Sinks = append(route.Sinks, pinMsg(9, 12+i, arch.S0F1))
	}
	for _, req := range []*Request{routeReq("dev", one, pinMsg(3, 18, arch.S0F1)), route} {
		if resp := w.Submit(ctx, req); resp.Err != "" {
			t.Fatalf("route: %s", resp.Err)
		}
	}
	objects := func(src EndPointMsg, sinks int) float64 {
		req := &Request{Op: "trace", Session: "dev", Source: &src}
		if resp := w.Submit(ctx, req); resp.Err != "" || len(resp.Net.Sinks) != sinks {
			t.Fatalf("trace: %q, want a net of %d sinks", resp.Err, sinks)
		}
		return testing.AllocsPerRun(100, func() { w.Submit(ctx, req) })
	}
	a, b := objects(one, 1), objects(fan, 8)
	t.Logf("a served trace allocates %v objects at 1 sink and %v at 8", a, b)
	if a != b {
		t.Error("a traced net of more sinks costs more objects")
	}
}
