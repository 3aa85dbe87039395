package repro_test

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/debug"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/maze"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/workload"
)

func newStack(t *testing.T) (*device.Device, *core.Router) {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return d, core.New(d)
}

// swapMultiplier is Example_rtr's core swap without the input pads: a
// constant multiplier wired to a register is shipped whole to a board, then
// unrouted at its ports, removed, retuned, relocated, reimplemented and
// reconnected from port memory (§3.3), and shipped again as a partial
// bitstream. It returns the session, the board and both frame counts.
func swapMultiplier(t *testing.T) (session *jbits.Session, board *jbits.Board, full, partial int) {
	t.Helper()
	a := arch.NewVirtex()
	session, err := jbits.NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(session.Dev)
	board, err = jbits.NewBoard("it", a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := cores.NewConstMul("mul", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mul.Place(4, 10)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	reg, err := cores.NewRegister("reg", mul.OutBits())
	if err != nil {
		t.Fatal(err)
	}
	reg.Place(4, 16)
	if err := reg.Implement(r); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		t.Fatal(err)
	}
	if full, err = session.SyncFull(board); err != nil {
		t.Fatal(err)
	}
	for _, p := range mul.Ports("p") {
		if err := r.Unroute(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := mul.Remove(r); err != nil {
		t.Fatal(err)
	}
	if err := mul.SetConstant(r, 2); err != nil {
		t.Fatal(err)
	}
	mul.Place(9, 10)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	for _, p := range mul.Ports("p") {
		if err := r.Reconnect(p); err != nil {
			t.Fatal(err)
		}
	}
	if partial, err = session.SyncPartial(board); err != nil {
		t.Fatal(err)
	}
	return session, board, full, partial
}

// TestPaperB5UnrouterAndPartialSwap is §3.3: "Run-time reconfiguration
// requires an unrouter"; reverse unroute removes only the branch to one
// sink; and a core "can be removed, unrouted, and replaced ... without
// having to reconfigure the entire design". A seeded 400-op route/unroute
// churn on 16×24 frees exactly what each route set; reverse-unrouting one
// sink of an 8-sink net frees its private branch and leaves 7 sinks; and
// the multiplier swap ships 41 partial frames against 15 096 full ones,
// which readback confirms. The counts are pinned; the churn's ops/ms is
// not asserted.
func TestPaperB5UnrouterAndPartialSwap(t *testing.T) {
	d, r := newStack(t)
	ops, err := workload.ForDevice(1, d).Churn(400, 6, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	routes, unroutes := 0, 0
	set := map[core.Pin]int{}
	for _, op := range ops {
		before := d.OnPIPCount()
		if op.Route {
			if err := r.RouteNet(op.Src, op.Sink); err != nil {
				t.Fatalf("op %d: %v", op.Serial, err)
			}
			set[op.Src] += d.OnPIPCount() - before
			routes++
			continue
		}
		if err := r.Unroute(op.Src); err != nil {
			t.Fatalf("op %d: %v", op.Serial, err)
		}
		if freed := before - d.OnPIPCount(); freed != set[op.Src] {
			t.Fatalf("op %d: unroute freed %d PIPs, routes set %d", op.Serial, freed, set[op.Src])
		}
		delete(set, op.Src)
		unroutes++
	}
	if routes != 229 || unroutes != 171 || d.OnPIPCount() != 395 {
		t.Errorf("churn: %d routes, %d unroutes, %d PIPs live; pinned 229, 171, 395",
			routes, unroutes, d.OnPIPCount())
	}

	d, r = newStack(t)
	src, sinks, err := workload.ForDevice(2, d).Fanout(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	before := d.OnPIPCount()
	if err := r.ReverseUnroute(sinks[0].Pins()[0]); err != nil {
		t.Fatal(err)
	}
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	if freed := before - d.OnPIPCount(); freed != 3 || before != 30 || len(net.Sinks) != 7 {
		t.Errorf("reverse unroute freed %d of %d PIPs, %d sinks remain; pinned 3 of 30, 7",
			freed, before, len(net.Sinks))
	}

	session, board, full, partial := swapMultiplier(t)
	diffs, err := session.VerifyReadback(board)
	if err != nil {
		t.Fatal(err)
	}
	if partial != 41 || full != 15096 || diffs != 0 {
		t.Errorf("swap: %d partial vs %d full frames, %d readback diffs; pinned 41, 15096, 0",
			partial, full, diffs)
	}
}

// TestIntegrationMACWithDebug holds what Example_adaptive's printout does
// not show about the same MAC: its resource usage, and that an internal
// net (the first accumulator bit) traces to sinks and can be timed.
func TestIntegrationMACWithDebug(t *testing.T) {
	d, r := newStack(t)
	mac, err := cores.NewMAC("mac", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mac.Place(2, 6); err != nil {
		t.Fatal(err)
	}
	if err := mac.Implement(r); err != nil {
		t.Fatal(err)
	}
	u := debug.ResourceUsage(d)
	if u.Total == 0 {
		t.Fatal("no resources used")
	}
	accSrc := mac.Ports("acc")[0]
	net, err := r.Trace(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Sinks) == 0 {
		t.Fatal("acc bit 0 has no sinks")
	}
	if _, _, err := timing.Default().Critical(d, net); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationChurnLifecycle runs a long RTR churn and checks exact
// resource accounting at every step.
func TestIntegrationChurnLifecycle(t *testing.T) {
	d, r := newStack(t)
	gen := workload.ForDevice(11, d)
	ops, err := gen.Churn(300, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	livePIPs := map[core.Pin]int{}
	for _, op := range ops {
		if op.Route {
			before := d.OnPIPCount()
			if err := r.RouteNet(op.Src, op.Sink); err != nil {
				t.Fatalf("op %d: %v", op.Serial, err)
			}
			livePIPs[op.Src] = d.OnPIPCount() - before
		} else {
			before := d.OnPIPCount()
			if err := r.Unroute(op.Src); err != nil {
				t.Fatalf("op %d: %v", op.Serial, err)
			}
			freed := before - d.OnPIPCount()
			if freed != livePIPs[op.Src] {
				t.Fatalf("op %d: freed %d PIPs, expected %d", op.Serial, freed, livePIPs[op.Src])
			}
			delete(livePIPs, op.Src)
		}
	}
	// Drain and verify emptiness.
	for src := range livePIPs {
		if err := r.Unroute(src); err != nil {
			t.Fatal(err)
		}
	}
	if d.OnPIPCount() != 0 {
		t.Errorf("%d PIPs leak after churn", d.OnPIPCount())
	}
}

// TestIntegrationBatchPipeline wires the dataflow pipeline with the
// negotiated batch router instead of greedy buses and verifies it still
// computes.
func TestIntegrationBatchPipeline(t *testing.T) {
	d, r := newStack(t)
	mul, err := cores.NewConstMul("mul5", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	mul.Place(3, 8)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	reg, err := cores.NewRegister("regY", mul.OutBits())
	if err != nil {
		t.Fatal(err)
	}
	reg.Place(3, 14)
	if err := reg.Implement(r); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteBusBatch(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		t.Fatal(err)
	}
	s := sim.New(d)
	for i, p := range mul.Ports("x") {
		if err := r.RouteNet(core.NewPin(3, 3, arch.OutPin(i)), p); err != nil {
			t.Fatal(err)
		}
		if err := s.Force(3, 3, arch.OutPin(i), 13>>uint(i)&1 != 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	var probes []sim.Probe
	for _, p := range reg.Ports("q") {
		pin := p.Pins()[0]
		probes = append(probes, sim.Probe{Row: pin.Row, Col: pin.Col, W: pin.W})
	}
	y, err := s.ReadWord(probes)
	if err != nil {
		t.Fatal(err)
	}
	if y != 5*13 {
		t.Errorf("batch-wired pipeline: y=%d, want 65", y)
	}
}

// TestIntegrationUnroutableIsClean saturates a tiny region and checks that
// failures are ErrUnroutable and leave no partial nets behind.
func TestIntegrationUnroutableIsClean(t *testing.T) {
	d, r := newStack(t)
	// Saturate every input of one CLB so further sinks there fail fast.
	for k := 0; k < arch.NumInputs; k++ {
		if err := r.RouteNet(core.NewPin(5, 5, arch.OutPin(k%8)), core.NewPin(8, 8, arch.Input(k))); err != nil {
			t.Fatalf("setup %d: %v", k, err)
		}
	}
	before := d.OnPIPCount()
	err := r.RouteNet(core.NewPin(2, 2, arch.S0X), core.NewPin(8, 8, arch.S0F1))
	if !errors.Is(err, maze.ErrUnroutable) {
		t.Fatalf("expected unroutable, got %v", err)
	}
	if d.OnPIPCount() != before {
		t.Errorf("failed route leaked PIPs: %d -> %d", before, d.OnPIPCount())
	}
}
