package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/maze"
)

func TestRouteBatchSimple(t *testing.T) {
	r := newTestRouter(t, Options{})
	nets := []BatchNet{
		{Source: NewPin(2, 2, arch.S0X), Sinks: []EndPoint{NewPin(6, 9, arch.S0F1)}},
		{Source: NewPin(3, 2, arch.S0X), Sinks: []EndPoint{NewPin(7, 9, arch.S0F1)}},
		{Source: NewPin(4, 2, arch.S0X), Sinks: []EndPoint{NewPin(8, 9, arch.S0F1), NewPin(5, 9, arch.S1F1)}},
	}
	if err := r.RouteBatch(nets); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(2, 2, arch.S0X), NewPin(6, 9, arch.S0F1))
	assertConnected(t, r, NewPin(3, 2, arch.S0X), NewPin(7, 9, arch.S0F1))
	assertConnected(t, r, NewPin(4, 2, arch.S0X), NewPin(8, 9, arch.S0F1))
	assertConnected(t, r, NewPin(4, 2, arch.S0X), NewPin(5, 9, arch.S1F1))
	if len(r.Connections()) != 3 {
		t.Errorf("connection records = %d", len(r.Connections()))
	}
	// Unrouting batch-routed nets works like any other net.
	if err := r.Unroute(NewPin(4, 2, arch.S0X)); err != nil {
		t.Fatal(err)
	}
}

// TestRouteBatchRefusesTimingDriven: the negotiation has no delay model,
// so on a TimingDriven router RouteBatch and RouteBusBatch answer
// ErrTimingDrivenBatch and change nothing — no PIP, no record — where they
// used to count wires. A sequential route on the same router still runs.
func TestRouteBatchRefusesTimingDriven(t *testing.T) {
	r := newTestRouter(t, Options{TimingDriven: true})
	if err := r.RouteNet(NewPin(2, 2, arch.S0X), NewPin(6, 9, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	pips, recs := r.Dev.OnPIPCount(), len(r.Connections())
	src, sink := NewPin(3, 2, arch.S0X), NewPin(7, 9, arch.S0F1)
	for name, err := range map[string]error{
		"RouteBatch":    r.RouteBatch([]BatchNet{{Source: src, Sinks: []EndPoint{sink}}}),
		"RouteBusBatch": r.RouteBusBatch([]EndPoint{src}, []EndPoint{sink}),
	} {
		if !errors.Is(err, ErrTimingDrivenBatch) {
			t.Errorf("%s under TimingDriven: %v, want ErrTimingDrivenBatch", name, err)
		}
	}
	if r.Dev.OnPIPCount() != pips || len(r.Connections()) != recs {
		t.Errorf("refused batches left %d PIPs and %d records, want %d and %d", r.Dev.OnPIPCount(), len(r.Connections()), pips, recs)
	}
}

// TestRouteBatchCongestedCrossbar: many bits crossing through a narrow
// column region, routed as a batch. The negotiation must spread them over
// disjoint tracks.
func TestRouteBatchCongestedCrossbar(t *testing.T) {
	r := newTestRouter(t, Options{})
	const width = 12
	var srcs, dsts []EndPoint
	for i := 0; i < width; i++ {
		srcs = append(srcs, NewPin(2+i, 4, arch.OutPin(i%arch.NumOutPins)))
		// Reversed rows at the far side: every net crosses the others.
		dsts = append(dsts, NewPin(2+(width-1-i), 14, arch.Input(i%arch.NumInputs)))
	}
	if err := r.RouteBusBatch(srcs, dsts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < width; i++ {
		assertConnected(t, r, srcs[i].Pins()[0], dsts[i].Pins()[0])
	}
}

func TestRouteBatchValidation(t *testing.T) {
	r := newTestRouter(t, Options{})
	if err := r.RouteBatch(nil); !errors.Is(err, maze.ErrUnroutable) {
		t.Errorf("empty batch: %v", err)
	}
	g := NewGroup("g")
	unbound := g.NewPort("u", Out)
	if err := r.RouteBatch([]BatchNet{{Source: unbound, Sinks: []EndPoint{NewPin(1, 1, arch.S0F1)}}}); err == nil {
		t.Error("unbound source accepted")
	}
	if err := r.RouteBatch([]BatchNet{{Source: NewPin(1, 1, arch.S0X)}}); err == nil {
		t.Error("sink-less net accepted")
	}
	if err := r.RouteBusBatch(make([]EndPoint, 2), make([]EndPoint, 3)); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := r.RouteBusBatch(nil, nil); err == nil {
		t.Error("empty bus accepted")
	}
}

// TestRouteBatchLeavesDeviceCleanOnFailure: an impossible batch (sink
// already driven) must not leave partial routes.
func TestRouteBatchFailureClean(t *testing.T) {
	r := newTestRouter(t, Options{})
	blocked := NewPin(6, 9, arch.S0F1)
	if err := r.RouteNet(NewPin(9, 9, arch.S0X), blocked); err != nil {
		t.Fatal(err)
	}
	before := r.Dev.OnPIPCount()
	nets := []BatchNet{
		{Source: NewPin(2, 2, arch.S0X), Sinks: []EndPoint{NewPin(4, 4, arch.S0F1)}},
		{Source: NewPin(3, 2, arch.S0X), Sinks: []EndPoint{blocked}}, // already driven
	}
	if err := r.RouteBatch(nets); err == nil {
		t.Fatal("batch with blocked sink accepted")
	}
	if r.Dev.OnPIPCount() != before {
		t.Errorf("failed batch changed device: %d -> %d PIPs", before, r.Dev.OnPIPCount())
	}
}

// TestBatchBeatsGreedyOnCongestion constructs a workload where greedy
// sequential routing paints itself into a corner more often than the
// negotiated batch: all nets squeezed through a 2-column window with
// crossing endpoints.
func TestBatchVsGreedySuccess(t *testing.T) {
	build := func() ([]EndPoint, []EndPoint) {
		const width = 16
		var srcs, dsts []EndPoint
		for i := 0; i < width; i++ {
			srcs = append(srcs, NewPin(i%16, 6, arch.OutPin(i%arch.NumOutPins)))
			dsts = append(dsts, NewPin((i+8)%16, 8, arch.Input(i%arch.NumInputs)))
		}
		return srcs, dsts
	}
	srcs, dsts := build()
	rBatch := newTestRouter(t, Options{})
	if err := rBatch.RouteBusBatch(srcs, dsts); err != nil {
		t.Fatalf("negotiated batch failed on the congested crossbar: %v", err)
	}
	// Greedy may or may not fail here; the guarantee under test is only
	// that negotiation succeeds where routes must interleave.
}
