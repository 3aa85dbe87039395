package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/maze"
)

func newTestRouter(t testing.TB, opt Options) *Router {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return New(d, func(o *Options) { *o = opt })
}

// assertConnected verifies via reverse trace that sink's net roots at src.
func assertConnected(t *testing.T, r *Router, src, sink Pin) {
	t.Helper()
	net, err := r.ReverseTrace(sink)
	if err != nil {
		t.Fatalf("reverse trace from %v: %v", sink, err)
	}
	if net.Source != src {
		t.Fatalf("net source = %v, want %v", net.Source, src)
	}
}

// The §3.1 example, level 1: four explicit route calls.
func TestRouteLevel1PaperExample(t *testing.T) {
	r := newTestRouter(t, Options{})
	a := r.Dev.A
	calls := []struct {
		row, col int
		from, to arch.Wire
	}{
		{5, 7, arch.S1YQ, arch.Out(1)},
		{5, 7, arch.Out(1), a.Single(arch.East, 5)},
		{5, 8, a.Single(arch.West, 5), a.Single(arch.North, 0)},
		{6, 8, a.Single(arch.South, 0), arch.S0F3},
	}
	for _, c := range calls {
		if err := r.Route(c.row, c.col, c.from, c.to); err != nil {
			t.Fatal(err)
		}
	}
	assertConnected(t, r, NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3))
	if r.Stats().PIPsSet != 4 {
		t.Errorf("PIPsSet = %d, want 4", r.Stats().PIPsSet)
	}
}

// Level 2: the same route as a Path:
//
//	int[] p = {S1_YQ, Out[1], SingleEast[5], SingleNorth[0], S0F3};
//	Path path = new Path(5,7,p);
func TestRoutePathPaperExample(t *testing.T) {
	r := newTestRouter(t, Options{})
	a := r.Dev.A
	p := NewPath(5, 7, []arch.Wire{
		arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
	})
	if err := r.RoutePath(p); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3))
	// Exactly the same four PIPs as level 1.
	if n := r.Dev.OnPIPCount(); n != 4 {
		t.Errorf("path route used %d PIPs, want 4", n)
	}
	if !r.IsOn(5, 8, a.Single(arch.West, 5)) {
		t.Error("path did not use the east single")
	}
}

// Level 3: the same route by template:
//
//	int[] t = {OUTMUX, EAST1, NORTH1, CLBIN};
func TestRouteTemplatePaperExample(t *testing.T) {
	r := newTestRouter(t, Options{})
	tmpl := NewTemplate([]arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVNorth1, arch.TVClbIn})
	if err := r.RouteTemplate(NewPin(5, 7, arch.S1YQ), arch.S0F3, tmpl); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3))
	if n := r.Dev.OnPIPCount(); n != 4 {
		t.Errorf("template route used %d PIPs, want 4", n)
	}
}

// Level 4: full auto-routing:
//
//	Pin src = new Pin(5, 7, S1_YQ);
//	Pin sink = new Pin(6, 8, S0F3);
//	router.route(src, sink);
func TestRouteNetPaperExample(t *testing.T) {
	r := newTestRouter(t, Options{})
	if err := r.RouteNet(NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3))
	st := r.Stats()
	if st.Routes != 1 || st.TemplateHits != 1 {
		t.Errorf("stats = %+v, want one template-hit route", st)
	}
}

func TestParseTemplate(t *testing.T) {
	tmpl, err := ParseTemplate("OUTMUX, EAST1, NORTH1, CLBIN")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Values) != 4 || tmpl.Values[1] != arch.TVEast1 {
		t.Errorf("parsed %v", tmpl)
	}
	if tmpl.String() != "{OUTMUX,EAST1,NORTH1,CLBIN}" {
		t.Errorf("String = %s", tmpl)
	}
	if _, err := ParseTemplate("OUTMUX,BOGUS"); err == nil {
		t.Error("bad template accepted")
	}
}

func TestRoutePathRollbackOnFailure(t *testing.T) {
	r := newTestRouter(t, Options{})
	a := r.Dev.A
	// Last step is illegal: a hex cannot drive an input.
	p := NewPath(5, 7, []arch.Wire{
		arch.S1YQ, arch.Out(1), a.Hex(arch.East, 1), arch.S0F3,
	})
	if err := r.RoutePath(p); err == nil {
		t.Fatal("illegal path accepted")
	}
	if n := r.Dev.OnPIPCount(); n != 0 {
		t.Errorf("device has %d PIPs after failed path", n)
	}
	// Short and invalid-wire paths rejected statically.
	if err := r.RoutePath(NewPath(5, 7, []arch.Wire{arch.S1YQ})); err == nil {
		t.Error("one-wire path accepted")
	}
	if err := r.RoutePath(NewPath(5, 7, []arch.Wire{arch.S1YQ, arch.Invalid})); err == nil {
		t.Error("invalid wire accepted")
	}
}

func TestRouteNetDistancesAndAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{TemplateFirst, AStar, Lee} {
		r := newTestRouter(t, Options{Algorithm: alg})
		cases := []struct{ sr, sc, tr, tc int }{
			{3, 3, 3, 3}, {3, 3, 3, 4}, {3, 3, 4, 3}, {2, 2, 9, 17}, {14, 22, 1, 1},
		}
		for _, c := range cases {
			src := NewPin(c.sr, c.sc, arch.S0X)
			sink := NewPin(c.tr, c.tc, arch.S1F2)
			if err := r.RouteNet(src, sink); err != nil {
				t.Fatalf("alg %d (%d,%d)->(%d,%d): %v", alg, c.sr, c.sc, c.tr, c.tc, err)
			}
			assertConnected(t, r, src, sink)
		}
		st := r.Stats()
		if alg == TemplateFirst && st.TemplateHits == 0 {
			t.Errorf("template-first made no template hits: %+v", st)
		}
		if alg != TemplateFirst && st.TemplateHits != 0 {
			t.Errorf("alg %d used templates: %+v", alg, st)
		}
	}
}

func TestRouteFanoutSharesResources(t *testing.T) {
	// Route 1 source to 6 sinks with RouteFanout, and the same pattern
	// as 6 independent nets from separate sources; shared fanout must
	// use fewer wires per sink (§3.1: "it minimizes the routing
	// resources used").
	rShared := newTestRouter(t, Options{})
	src := NewPin(8, 4, arch.S0X)
	var sinks []EndPoint
	for i := 0; i < 6; i++ {
		sinks = append(sinks, NewPin(6+i, 14+i, arch.S0F1))
	}
	if err := rShared.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	net, err := rShared.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Sinks) != 6 {
		t.Fatalf("fanout net has %d sinks, want 6", len(net.Sinks))
	}
	sharedWires := net.WireCount(rShared.Dev)

	rIndep := newTestRouter(t, Options{})
	indepWires := 0
	for i := 0; i < 6; i++ {
		s := NewPin(8, 4, arch.OutPin(i%arch.NumOutPins))
		if err := rIndep.RouteNet(s, sinks[i]); err != nil {
			t.Fatal(err)
		}
		n, err := rIndep.Trace(s)
		if err != nil {
			t.Fatal(err)
		}
		indepWires += n.WireCount(rIndep.Dev)
	}
	if sharedWires >= indepWires {
		t.Errorf("shared fanout uses %d wires, independent %d: no sharing", sharedWires, indepWires)
	}
}

func TestRouteBus(t *testing.T) {
	r := newTestRouter(t, Options{})
	// An output group at (4,4) and an input group at (9,15).
	og := NewGroup("mult.out")
	ig := NewGroup("add.in")
	var srcs, dsts []EndPoint
	for i := 0; i < 4; i++ {
		op := og.NewPort(portName("o", i), Out)
		if err := op.Bind(NewPin(4, 4+i, arch.S0X)); err != nil {
			t.Fatal(err)
		}
		ip := ig.NewPort(portName("i", i), In)
		if err := ip.Bind(NewPin(9, 15+i, arch.S0F1)); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, op)
		dsts = append(dsts, ip)
	}
	if err := r.RouteBus(srcs, dsts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		assertConnected(t, r, NewPin(4, 4+i, arch.S0X), NewPin(9, 15+i, arch.S0F1))
	}
	if err := r.RouteBus(srcs[:2], dsts); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := r.RouteBus(nil, nil); err == nil {
		t.Error("empty bus accepted")
	}
}

// TestRouteBusAllOrNothing: a bus whose third bit cannot route (its sink is
// taken) used to leave bits 0 and 1 routed with live records. The failed
// call must leave the router and the device exactly as it found them —
// PIPs, records, bytes, and no frame dirty — and the same bus must route
// once the obstruction is gone.
func TestRouteBusAllOrNothing(t *testing.T) {
	r := newTestRouter(t, Options{})
	var srcs, dsts []EndPoint
	for i := 0; i < 4; i++ {
		srcs = append(srcs, NewPin(4, 4+i, arch.S0X))
		dsts = append(dsts, NewPin(9, 15+i, arch.S0F1))
	}
	blocker := NewPin(12, 3, arch.S0X)
	if err := r.RouteNet(blocker, dsts[2]); err != nil {
		t.Fatal(err)
	}
	r.Dev.ClearDirty() // as a service does after shipping each op's frames
	before, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	pips, conns := r.Dev.OnPIPCount(), r.ConnectionCount()

	if err := r.RouteBus(srcs, dsts); err == nil {
		t.Fatal("bus routed onto an occupied sink")
	}
	if got := r.Dev.OnPIPCount(); got != pips {
		t.Errorf("failed bus left %d PIPs on, want %d", got, pips)
	}
	if got := r.ConnectionCount(); got != conns {
		t.Errorf("failed bus left %d connection records, want %d", got, conns)
	}
	after, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed bus changed the configuration")
	}
	if n := r.Dev.DirtyFrameCount(); n != 0 {
		t.Errorf("failed bus left %d frames dirty on an unchanged configuration", n)
	}
	if err := r.VerifyOracle(); err != nil {
		t.Errorf("after failed bus: %v", err)
	}

	if err := r.Unroute(blocker); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteBus(srcs, dsts); err != nil {
		t.Fatalf("bus after the obstruction left: %v", err)
	}
	for i := range srcs {
		assertConnected(t, r, srcs[i].(Pin), dsts[i].(Pin))
	}
}

func portName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestPortBindingRules(t *testing.T) {
	g := NewGroup("g")
	out := g.NewPort("out", Out)
	if err := out.Bind(NewPin(1, 1, arch.S0X), NewPin(1, 2, arch.S0X)); err == nil {
		t.Error("out port bound to two pins")
	}
	in := g.NewPort("in", In)
	if err := in.Bind(); err == nil {
		t.Error("in port bound to zero pins")
	}
	if err := in.Bind(NewPin(1, 1, arch.S0F1), NewPin(1, 1, arch.S0G1)); err != nil {
		t.Errorf("multi-pin in port rejected: %v", err)
	}
	if err := out.BindPort(in); err == nil {
		t.Error("direction mismatch accepted")
	}
	// Forwarding: outer re-exports inner.
	inner := NewGroup("inner").NewPort("o", Out)
	if err := inner.Bind(NewPin(2, 2, arch.S0Y)); err != nil {
		t.Fatal(err)
	}
	if err := out.BindPort(inner); err != nil {
		t.Fatal(err)
	}
	pins := out.Pins()
	if len(pins) != 1 || pins[0] != NewPin(2, 2, arch.S0Y) {
		t.Errorf("forwarded pins = %v", pins)
	}
	// Cycles rejected.
	x := NewGroup("x").NewPort("a", Out)
	y := NewGroup("y").NewPort("b", Out)
	if err := x.BindPort(y); err != nil {
		t.Fatal(err)
	}
	if err := y.BindPort(x); err == nil {
		t.Error("binding cycle accepted")
	}
	if err := x.BindPort(nil); err == nil {
		t.Error("nil binding accepted")
	}
	if g.Size() != 2 || g.Name() != "g" {
		t.Errorf("group bookkeeping wrong: %d %s", g.Size(), g.Name())
	}
	if out.Group() != g || in.Dir() != In || out.Dir() != Out {
		t.Error("port accessors wrong")
	}
}

func TestTraceAndReverseTrace(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sinkA := NewPin(9, 9, arch.S0F1)
	sinkB := NewPin(9, 11, arch.S1F1)
	if err := r.RouteFanout(src, []EndPoint{sinkA, sinkB}); err != nil {
		t.Fatal(err)
	}
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Sinks) != 2 {
		t.Fatalf("trace found %d sinks, want 2", len(net.Sinks))
	}
	// Reverse trace from each sink returns only its branch and the
	// common spine — strictly fewer PIPs than the whole net.
	ra, err := r.ReverseTrace(sinkA)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Source != src {
		t.Errorf("reverse trace source %v, want %v", ra.Source, src)
	}
	if len(ra.PIPs) >= len(net.PIPs) {
		t.Errorf("branch trace (%d PIPs) not smaller than net (%d PIPs)", len(ra.PIPs), len(net.PIPs))
	}
	// Reverse trace of something unrouted fails.
	if _, err := r.ReverseTrace(NewPin(1, 1, arch.S0F1)); err == nil {
		t.Error("reverse trace of unrouted pin succeeded")
	}
	// Trace of an unrouted source yields an empty net.
	empty, err := r.Trace(NewPin(1, 1, arch.S0X))
	if err != nil || len(empty.PIPs) != 0 {
		t.Errorf("trace of unrouted source: %v, %v", empty, err)
	}
}

func TestUnroute(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sinks := []EndPoint{NewPin(9, 9, arch.S0F1), NewPin(3, 12, arch.S0F2)}
	if err := r.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	if r.UsedTracks() == 0 {
		t.Fatal("nothing routed")
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	if n := r.UsedTracks(); n != 0 {
		t.Errorf("%d tracks still used after unroute", n)
	}
	if err := r.Unroute(src); err == nil {
		t.Error("double unroute accepted")
	}
	if len(r.Connections()) != 0 {
		t.Error("connection records survive unroute")
	}
}

func TestReverseUnrouteRemovesOnlyBranch(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sinkA := NewPin(9, 9, arch.S0F1)
	sinkB := NewPin(9, 11, arch.S1F1)
	if err := r.RouteFanout(src, []EndPoint{sinkA, sinkB}); err != nil {
		t.Fatal(err)
	}
	before := r.Dev.OnPIPCount()
	if err := r.ReverseUnroute(sinkA); err != nil {
		t.Fatal(err)
	}
	after := r.Dev.OnPIPCount()
	if after >= before {
		t.Errorf("reverse unroute freed nothing (%d -> %d)", before, after)
	}
	// The other branch is intact.
	assertConnected(t, r, src, sinkB)
	// sinkA is free for reuse.
	if r.IsOn(sinkA.Row, sinkA.Col, sinkA.W) {
		t.Error("sink A still driven")
	}
	// Re-routing sink A works again.
	if err := r.RouteNet(src, sinkA); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, src, sinkA)
	if err := r.ReverseUnroute(NewPin(1, 1, arch.S0F1)); err == nil {
		t.Error("reverse unroute of unrouted pin accepted")
	}
}

// TestPortMemoryReplacement reproduces §3.3's constant-multiplier story at
// the routing level: connections to a port are unrouted, the port rebinds
// to new pins (the replacement core), and Reconnect restores the wiring
// without the user re-specifying it.
func TestPortMemoryReplacement(t *testing.T) {
	r := newTestRouter(t, Options{})
	g := NewGroup("cm")
	out := g.NewPort("q", Out)
	if err := out.Bind(NewPin(4, 4, arch.S0X)); err != nil {
		t.Fatal(err)
	}
	userIn := NewPin(10, 16, arch.S0F3)
	if err := r.RouteNet(out, userIn); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(4, 4, arch.S0X), userIn)

	// Remove the core's net; the connection is remembered.
	if err := r.Unroute(out); err != nil {
		t.Fatal(err)
	}
	if r.UsedTracks() != 0 {
		t.Fatal("tracks leak after unroute")
	}
	if len(r.RememberedConnections(out)) != 1 {
		t.Fatalf("remembered = %v", r.RememberedConnections(out))
	}

	// "Core relocation is handled in a similar way": rebind the port to
	// the replacement core's pin at a new location.
	if err := out.Bind(NewPin(6, 6, arch.S1X)); err != nil {
		t.Fatal(err)
	}
	if err := r.Reconnect(out); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, NewPin(6, 6, arch.S1X), userIn)
	if len(r.RememberedConnections(out)) != 0 {
		t.Error("remembered connection not consumed")
	}
	// Reconnect with nothing remembered is a no-op.
	if err := r.Reconnect(out); err != nil {
		t.Error(err)
	}
}

func TestRouteClock(t *testing.T) {
	r := newTestRouter(t, Options{})
	sinks := []EndPoint{NewPin(2, 3, arch.S0CLK), NewPin(11, 19, arch.S1CLK)}
	if err := r.RouteClock(0, sinks...); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		p := s.Pins()[0]
		if !r.IsOn(p.Row, p.Col, p.W) {
			t.Errorf("clock pin %v not driven", p)
		}
	}
	if err := r.RouteClock(99); err == nil {
		t.Error("bad clock index accepted")
	}
	if err := r.RouteClock(0, NewPin(2, 3, arch.S0F1)); err == nil {
		t.Error("clock onto LUT input accepted")
	}

	// All or nothing: a failed call takes down the taps it set and leaves
	// no dirty frame, but a tap an earlier call set stays on.
	r.Dev.ClearDirty()
	pips := r.Dev.OnPIPCount()
	if err := r.RouteClock(0, NewPin(3, 3, arch.S0CLK), NewPin(2, 3, arch.S0F1)); err == nil {
		t.Fatal("clock onto LUT input accepted after a good tap")
	}
	if r.IsOn(3, 3, arch.S0CLK) || r.Dev.OnPIPCount() != pips || r.Dev.DirtyFrameCount() != 0 {
		t.Errorf("failed call left tap (3,3) on=%v, %d PIPs (entry %d), %d dirty frames",
			r.IsOn(3, 3, arch.S0CLK), r.Dev.OnPIPCount(), pips, r.Dev.DirtyFrameCount())
	}
	if err := r.RouteClock(0, sinks[0], NewPin(2, 3, arch.S0F1)); err == nil {
		t.Fatal("clock onto LUT input accepted after a repeated tap")
	}
	if p := sinks[0].Pins()[0]; !r.IsOn(p.Row, p.Col, p.W) || r.Dev.OnPIPCount() != pips {
		t.Errorf("after a failed repeat: earlier tap %v on=%v, %d PIPs (entry %d)",
			p, r.IsOn(p.Row, p.Col, p.W), r.Dev.OnPIPCount(), pips)
	}
}

// TestAutoRouteNeverContends is the B6 invariant: whatever the workload,
// the automatic router must never produce contention — it fails cleanly
// instead (§3.4 "In the auto-routing calls, the router checks to see if a
// wire is already used, which avoids contention").
func TestAutoRouteNeverContends(t *testing.T) {
	r := newTestRouter(t, Options{})
	rng := rand.New(rand.NewSource(42))
	routed := 0
	for i := 0; i < 300; i++ {
		src := NewPin(rng.Intn(16), rng.Intn(24), arch.OutPin(rng.Intn(arch.NumOutPins)))
		sink := NewPin(rng.Intn(16), rng.Intn(24), arch.Input(rng.Intn(arch.NumInputs)))
		err := r.RouteNet(src, sink)
		var ce *device.ContentionError
		if errors.As(err, &ce) {
			t.Fatalf("route %d created contention: %v", i, err)
		}
		if err == nil {
			routed++
		} else if !errors.Is(err, maze.ErrUnroutable) {
			t.Fatalf("route %d unexpected error: %v", i, err)
		}
	}
	if routed < 100 {
		t.Errorf("only %d/300 random nets routed; fabric too congested", routed)
	}
}

// TestKestrelPortability is the §5 claim at unit level: the same router
// code routes an entirely different architecture.
func TestKestrelPortability(t *testing.T) {
	d, err := device.New(arch.NewKestrel(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := New(d)
	cases := []struct{ sr, sc, tr, tc int }{
		{2, 2, 2, 2}, {2, 2, 9, 13}, {10, 14, 1, 1},
	}
	for _, c := range cases {
		src := NewPin(c.sr, c.sc, arch.S0X)
		sink := NewPin(c.tr, c.tc, arch.S0F1)
		if err := r.RouteNet(src, sink); err != nil {
			t.Fatalf("kestrel (%d,%d)->(%d,%d): %v", c.sr, c.sc, c.tr, c.tc, err)
		}
		assertConnected(t, r, src, sink)
	}
}

func TestSourceEndpointValidation(t *testing.T) {
	r := newTestRouter(t, Options{})
	g := NewGroup("g")
	unbound := g.NewPort("u", Out)
	if err := r.RouteNet(unbound, NewPin(1, 1, arch.S0F1)); err == nil {
		t.Error("unbound source port accepted")
	}
	src := NewPin(1, 1, arch.S0X)
	unboundIn := g.NewPort("ui", In)
	if err := r.RouteNet(src, unboundIn); err == nil {
		t.Error("unbound sink port accepted")
	}
	if err := r.RouteFanout(src, nil); err == nil {
		t.Error("empty fanout accepted")
	}
	if err := r.RouteFanout(src, []EndPoint{unboundIn}); err == nil {
		t.Error("fanout to unbound port accepted")
	}
}

// TestTraceOnRoutingLoop: Trace keeps no visited set — a track has one
// driver, so the only track a walk can meet twice is the one it started
// on, and only when it started on a loop. Build the shortest loop of
// singles the fabric allows through (5,5) by hand and trace from a wire on
// it: the walk must come back round once and stop, as it did when it kept
// a set.
func TestTraceOnRoutingLoop(t *testing.T) {
	r := newTestRouter(t, Options{})
	loop := routeSinglesLoop(t, r)
	net, err := r.Trace(NewPin(5, 5, r.Dev.A.Single(arch.East, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.PIPs) != len(loop)-1 {
		t.Errorf("trace round a loop of %d PIPs returned %d, want all but the one that closes it: %v", len(loop), len(net.PIPs), net.PIPs)
	}
}

// TestCallsReturnOnRoutingLoop: every call that walks a net's driver or
// fanout chain returns on a routing loop, with a pinned answer. The loop
// routeSinglesLoop builds closes on its first PIP, a single driving
// itself. It is set below the API, which refuses it, so it has no record;
// each call is given SingleEast[0] (5,5):
//   - ReverseTrace names the loop: the chain has no root.
//   - ForeignNet reads the records at the pin and finds none.
//   - Trace finds nothing past the PIP that closes the loop, so Unroute
//     finds nothing routed and leaves it on; RipUpRegion finds no record
//     over the region and leaves it on.
//   - ReverseUnroute clears the loop from the pin back.
//   - UnrouteAll finds no leaf to clear, leaves the loop on and fails.
//
// A walk caught in the loop spins (ReverseTrace also appends) without end,
// and its goroutine cannot be stopped: the calls run at once, on a router
// each, and one still running after 5 s or a heap grown past 256 MB fails
// the test and ends the test binary.
func TestCallsReturnOnRoutingLoop(t *testing.T) {
	pin := func(r *Router) Pin { return NewPin(5, 5, r.Dev.A.Single(arch.East, 0)) }
	on := func(r *Router, err error) string { return fmt.Sprintf("%v, %d on", err, r.Dev.OnPIPCount()) }
	cases := []struct {
		name string
		call func(r *Router) string
		want string
	}{
		{"Trace", func(r *Router) string {
			net, err := r.Trace(pin(r))
			return fmt.Sprintf("%d PIPs, %d sinks, %v", len(net.PIPs), len(net.Sinks), err)
		}, "0 PIPs, 0 sinks, <nil>"},
		{"ReverseTrace", func(r *Router) string {
			_, err := r.ReverseTrace(pin(r))
			return fmt.Sprint(err)
		}, "core: SingleEast[0] at (5,5) is on a routing loop"},
		{"Unroute", func(r *Router) string {
			return on(r, r.Unroute(pin(r)))
		}, "core: SingleEast[0] at (5,5) is not routed, 1 on"},
		{"ReverseUnroute", func(r *Router) string {
			return on(r, r.ReverseUnroute(pin(r)))
		}, "<nil>, 0 on"},
		{"ForeignNet", func(r *Router) string {
			return fmt.Sprintf("owner 0: %v, owner 1: %v", r.ForeignNet(pin(r), 0), r.ForeignNet(pin(r), 1))
		}, "owner 0: false, owner 1: false"},
		{"RipUpRegion", func(r *Router) string {
			ripped, err := r.RipUpRegion(4, 4, 3, 3)
			return fmt.Sprintf("%d ripped, %s", len(ripped), on(r, err))
		}, "0 ripped, <nil>, 1 on"},
		{"UnrouteAll", func(r *Router) string {
			return on(r, r.UnrouteAll())
		}, "core: unroute-all stuck with 1 PIPs (routing cycle?), 1 on"},
	}
	got := make([]string, len(cases))
	done := make(chan int, len(cases))
	for i, c := range cases {
		r := newTestRouter(t, Options{})
		routeSinglesLoop(t, r)
		go func() { got[i] = c.call(r); done <- i }()
	}
	returned := make([]bool, len(cases))
	stuck := func(why string) {
		var names []string
		for i, c := range cases {
			if !returned[i] {
				names = append(names, c.name)
			}
		}
		t.Errorf("on a routing loop, %s still running %s", strings.Join(names, ", "), why)
		panic("walks caught in a routing loop cannot be stopped")
	}
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for n := 0; n < len(cases); {
		select {
		case i := <-done:
			returned[i] = true
			n++
		case <-tick.C:
			var ms runtime.MemStats
			if runtime.ReadMemStats(&ms); ms.HeapAlloc > 256<<20 {
				stuck("with the heap past 256 MB")
			}
		case <-deadline:
			stuck("after 5 s")
		}
	}
	for i, c := range cases {
		if got[i] != c.want {
			t.Errorf("%s on a routing loop: %s, want %s", c.name, got[i], c.want)
		}
	}
}

// TestManualCallsRefuseRoutingLoop: Route and RoutePath refuse the PIP
// that closes routeSinglesLoop's loop, SingleEast[0] at (5,5) driving
// itself, because it drives the root of its own source. The refusal is a
// *LoopError naming the PIP and the track, and it leaves the device and
// the records as they were.
func TestManualCallsRefuseRoutingLoop(t *testing.T) {
	r := newTestRouter(t, Options{})
	se := r.Dev.A.Single(arch.East, 0)
	root, err := r.Dev.Canon(5, 5, se)
	if err != nil {
		t.Fatal(err)
	}
	closing := device.PIP{Row: 5, Col: 5, From: se, To: se}
	if loop := routeSinglesLoop(t, newTestRouter(t, Options{})); !slices.Equal(loop, []device.PIP{closing}) {
		t.Fatalf("routeSinglesLoop built %v, want the one PIP %s", loop, r.Dev.PIPString(closing))
	}
	// RoutePath would step onto SingleEast[0] at (5,6) from the track's
	// far end first; drive that track from elsewhere, so the only step
	// left is the one that closes the loop.
	for _, w := range r.Dev.A.LocalDrivers(se) {
		if tr, ok := r.Dev.CanonOK(5, 6, w); ok && tr != root {
			if err := r.Route(5, 6, w, se); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	on, records := r.Dev.OnPIPCount(), r.ConnectionCount()
	if on != 1 || records != 1 {
		t.Fatalf("blocker: %d PIPs on, %d records, want 1 and 1", on, records)
	}
	for _, c := range []struct {
		call string
		err  error
	}{
		{"Route", r.Route(5, 5, se, se)},
		{"RoutePath", r.RoutePath(Path{Row: 5, Col: 5, Wires: []arch.Wire{se, se}})},
	} {
		var le *LoopError
		if !errors.As(c.err, &le) {
			t.Errorf("%s closing the loop: %v, want a *LoopError", c.call, c.err)
			continue
		}
		if le.PIP != closing || le.Root != root {
			t.Errorf("%s: refused %s onto %v, want %s onto %v", c.call, r.Dev.PIPString(le.PIP), le.Root, r.Dev.PIPString(closing), root)
		}
		if !strings.Contains(c.err.Error(), "(5,5) SingleEast[0] -> SingleEast[0]") || !strings.Contains(c.err.Error(), "SingleEast[0] at (5,5)") {
			t.Errorf("%s: %q does not name the PIP and the track", c.call, c.err)
		}
		if r.Dev.OnPIPCount() != on || r.ConnectionCount() != records {
			t.Errorf("%s: %d PIPs on and %d records after the refusal, want %d and %d",
				c.call, r.Dev.OnPIPCount(), r.ConnectionCount(), on, records)
		}
	}
}

// routeSinglesLoop routes, PIP by PIP, a loop of singles that leaves
// SingleEast[0] at (5,5) and drives it again, and returns the loop's PIPs.
func routeSinglesLoop(t *testing.T, r *Router) []device.PIP {
	t.Helper()
	d := r.Dev
	start, err := d.Canon(5, 5, d.A.Single(arch.East, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Breadth-first over legal PIPs, singles only, for a way back to start.
	type hop struct {
		at   device.Track
		path []device.PIP
	}
	var loop []device.PIP
	seen := map[device.Track]bool{start: true}
	for frontier := []hop{{at: start}}; len(frontier) > 0 && loop == nil; {
		h := frontier[0]
		frontier = frontier[1:]
		edges, at := d.Edges(h.at)
		for _, e := range edges {
			if e.Kind != arch.KindSingle {
				continue
			}
			path := append(append([]device.PIP(nil), h.path...), e.PIP(at))
			if to := e.Target(at); to == start {
				loop = path
				break
			} else if !seen[to] && len(path) < 6 {
				seen[to] = true
				frontier = append(frontier, hop{to, path})
			}
		}
	}
	if loop == nil {
		t.Fatal("no loop of singles through (5,5)")
	}
	// Below the API: Route refuses the PIP that closes the loop.
	for _, p := range loop {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("closing the loop at %s: %v", d.PIPString(p), err)
		}
	}
	return loop
}
