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

// TestIntegrationQuickstart is examples/quickstart as a test: the §3.1
// example at all four levels produces identical connectivity.
func TestIntegrationQuickstart(t *testing.T) {
	d, r := newStack(t)
	a := d.A
	src := core.NewPin(5, 7, arch.S1YQ)
	sink := core.NewPin(6, 8, arch.S0F3)
	tmpl, err := core.ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
	if err != nil {
		t.Fatal(err)
	}
	levels := []func() error{
		func() error {
			for _, p := range []device.PIP{
				{Row: 5, Col: 7, From: arch.S1YQ, To: arch.Out(1)},
				{Row: 5, Col: 7, From: arch.Out(1), To: a.Single(arch.East, 5)},
				{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)},
				{Row: 6, Col: 8, From: a.Single(arch.South, 0), To: arch.S0F3},
			} {
				if err := r.Route(p.Row, p.Col, p.From, p.To); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			return r.RoutePath(core.NewPath(5, 7, []arch.Wire{
				arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
			}))
		},
		func() error { return r.RouteTemplate(src, arch.S0F3, tmpl) },
		func() error { return r.RouteNet(src, sink) },
	}
	for i, run := range levels {
		if err := run(); err != nil {
			t.Fatalf("level %d: %v", i+1, err)
		}
		net, err := r.Trace(src)
		if err != nil {
			t.Fatalf("level %d trace: %v", i+1, err)
		}
		if len(net.PIPs) != 4 || len(net.Sinks) != 1 || net.Sinks[0] != sink {
			t.Fatalf("level %d: net %+v", i+1, net)
		}
		if err := r.Unroute(src); err != nil {
			t.Fatalf("level %d unroute: %v", i+1, err)
		}
	}
	if d.OnPIPCount() != 0 {
		t.Error("device not clean at the end")
	}
}

// TestIntegrationDataflow is examples/dataflow as a test: a three-stage
// pipeline wired port-to-port computes y = 5x+3 for every 4-bit input.
func TestIntegrationDataflow(t *testing.T) {
	d, r := newStack(t)
	mul, err := cores.NewConstMul("mul5", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	mul.Place(3, 8)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	add, err := cores.NewConstAdder("add3", mul.OutBits(), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	add.Place(3, 13)
	if err := add.Implement(r); err != nil {
		t.Fatal(err)
	}
	reg, err := cores.NewRegister("regY", mul.OutBits())
	if err != nil {
		t.Fatal(err)
	}
	reg.Place(3, 18)
	if err := reg.Implement(r); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteBus(mul.Group("p").EndPoints(), add.Group("x").EndPoints()); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteBus(add.Group("sum").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		t.Fatal(err)
	}
	s := sim.New(d)
	for i, p := range mul.Ports("x") {
		if err := r.RouteNet(core.NewPin(3, 3, arch.OutPin(i)), p); err != nil {
			t.Fatal(err)
		}
	}
	var probes []sim.Probe
	for _, p := range reg.Ports("q") {
		pin := p.Pins()[0]
		probes = append(probes, sim.Probe{Row: pin.Row, Col: pin.Col, W: pin.W})
	}
	for x := uint64(0); x < 16; x++ {
		for i := 0; i < 4; i++ {
			if err := s.Force(3, 3, arch.OutPin(i), x>>uint(i)&1 != 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		y, err := s.ReadWord(probes)
		if err != nil {
			t.Fatal(err)
		}
		if y != 5*x+3 {
			t.Errorf("x=%d: y=%d, want %d", x, y, 5*x+3)
		}
	}
}

// swapMultiplier is examples/rtr's core swap: a constant multiplier wired
// to a register is shipped whole to a board, then unrouted at its ports,
// removed, retuned, relocated, reimplemented and reconnected from port
// memory (§3.3), and shipped again as a partial bitstream. It returns the
// session, the board and both frame counts.
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

// TestIntegrationRTRSwapWithBoard is examples/rtr as a test: a core swap
// ships a tiny partial bitstream to a board and readback verifies it.
func TestIntegrationRTRSwapWithBoard(t *testing.T) {
	session, board, full, partial := swapMultiplier(t)
	if partial == 0 || partial > full/20 {
		t.Errorf("partial frames %d vs full %d: not a small reconfiguration", partial, full)
	}
	if diffs, err := session.VerifyReadback(board); err != nil || diffs != 0 {
		t.Errorf("readback: %d diffs, %v", diffs, err)
	}
	// The board-side device carries the identical configuration, so the
	// swapped multiplier computes 2*x there too: the relocated core's
	// LUTs are live on the board at (9,10).
	if v, used := board.Device().GetLUT(9, 10, 0); !used || v != mulTruthBit0x2 {
		t.Errorf("board LUT at new site: %#x, used=%v", v, used)
	}
}

// TestPaperB5UnrouterAndPartialSwap is §3.3: "Run-time reconfiguration
// requires an unrouter"; reverse unroute removes only the branch to one
// sink; and a core "can be removed, unrouted, and replaced ... without
// having to reconfigure the entire design". A seeded 400-op route/unroute
// churn on 16×24 frees exactly what each route set; reverse-unrouting one
// sink of an 8-sink net frees its private branch and leaves 7 sinks; and
// the multiplier swap ships 43 partial frames against 15 096 full ones,
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
	if partial != 43 || full != 15096 || diffs != 0 {
		t.Errorf("swap: %d partial vs %d full frames, %d readback diffs; pinned 43, 15096, 0",
			partial, full, diffs)
	}
}

// mulTruthBit0x2 is bit 0 of 2*x for x in 0..15: always 0 (2*x is even),
// i.e. an all-zero truth table that is nevertheless marked used.
const mulTruthBit0x2 = uint16(0x0000)

// TestIntegrationMACWithDebug drives the hierarchical MAC and exercises
// the debug and timing layers over the same design.
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
	fp := debug.Floorplan(d)
	if len(fp) == 0 {
		t.Fatal("empty floorplan")
	}
	u := debug.ResourceUsage(d)
	if u.Total == 0 {
		t.Fatal("no resources used")
	}
	// Trace an internal net (the first accumulator bit) and time it.
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
	if rep := debug.NetReport(d, net); len(rep) == 0 {
		t.Fatal("empty net report")
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
