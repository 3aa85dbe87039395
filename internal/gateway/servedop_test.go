package gateway_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/server/client"
)

// servedNet is one net of the served-op churn: a source and three sinks.
type servedNet struct {
	src   server.EndPointMsg
	sinks []server.EndPointMsg
}

// servedStack boots the whole service path in one process — client → TCP
// → edge server → gateway → pooled client → TCP → backend server → fleet →
// worker → XHWIF → board — opens one session through it, and returns the
// session with eight nets to churn.
func servedStack(tb testing.TB) (*client.Session, []servedNet) {
	be, _ := startBackendSized(tb, 1, 16, 24)
	addr, _ := startGateway(tb, gateway.Config{
		Backends: []gateway.BackendConfig{{Name: "be0", Addr: be, Classes: []string{"v1000-class"}}},
	})
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	s, err := c.Session(ctx, "v1000-class/s0")
	if err != nil {
		tb.Fatal(err)
	}
	nets := make([]servedNet, 8)
	for i := range nets {
		r := 1 + i
		nets[i] = servedNet{pin(r, 2, arch.S1YQ),
			[]server.EndPointMsg{pin(r, 6, arch.S0F1), pin(r, 9, arch.S1F2), pin(r, 12, arch.S0F3)}}
	}
	return s, nets
}

// servedCycle routes every net, traces every other one and unroutes them
// all; it returns the op count.
func servedCycle(tb testing.TB, s *client.Session, nets []servedNet) int {
	ctx := context.Background()
	ops := 0
	for _, n := range nets {
		if err := s.Route(ctx, n.src, n.sinks...); err != nil {
			tb.Fatal(err)
		}
		ops++
	}
	for i := 0; i < len(nets); i += 2 {
		if net, err := s.Trace(ctx, nets[i].src); err != nil || len(net.Sinks) != len(nets[i].sinks) {
			tb.Fatalf("trace: %+v, %v", net, err)
		}
		ops++
	}
	for _, n := range nets {
		if err := s.Unroute(ctx, n.src); err != nil {
			tb.Fatal(err)
		}
		ops++
	}
	return ops
}

// TestServedOpAllocations pins what one served op allocates, process-wide,
// across every tier of the in-process stack once its routes are replays:
// the objects the request, the response and the pushed frames keep, and
// nothing per message besides — reads buffered, frame buffers pooled, a
// request's endpoints in one slice, no enqueue timer, a traced net's pins
// in two, the board name of the last response kept rather than copied, a
// replay run in the router's scratch and a cached key re-filed without a
// copy. It read 39.4 before the first of those went, 19.4 before the last
// three, and reads 16.2; the budget leaves room for a stray runtime object,
// not for a per-message one.
func TestServedOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what is put back")
	}
	s, nets := servedStack(t)
	servedCycle(t, s, nets) // the first cycle searches; later ones replay
	servedCycle(t, s, nets)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := 0
	for i := 0; i < 20; i++ {
		ops += servedCycle(t, s, nets)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%.2f objects allocated per served op over %d ops", perOp, ops)
	if perOp > 18 {
		t.Errorf("a served op allocates %.2f objects, want at most 18", perOp)
	}
}

// BenchmarkServedOp times one op through the whole in-process stack, with
// its allocations: ops alternate between routing a net and unrouting it.
func BenchmarkServedOp(b *testing.B) {
	s, nets := servedStack(b)
	servedCycle(b, s, nets)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := nets[i/2%len(nets)]
		var err error
		if i%2 == 0 {
			err = s.Route(ctx, n.src, n.sinks...)
		} else {
			err = s.Unroute(ctx, n.src)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
