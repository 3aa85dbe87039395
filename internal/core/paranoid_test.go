package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

func newParanoidRouter(t *testing.T, opt Options) *Router {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return New(d, func(o *Options) { *o = opt })
}

// TestParanoidVerifyCleanOps runs the standard op mix under
// ParanoidVerify: every call audits the full board against the oracle, so
// any stale antenna, phantom PIP, or record drift fails the test.
func TestParanoidVerifyCleanOps(t *testing.T) {
	r := newParanoidRouter(t, Options{ParanoidVerify: true})
	src := NewPin(5, 7, arch.S1YQ)
	sinkA := NewPin(6, 8, arch.S0F3)
	sinkB := NewPin(3, 10, arch.S1G2)
	if err := r.RouteNet(src, sinkA); err != nil {
		t.Fatalf("RouteNet: %v", err)
	}
	if err := r.RouteFanout(NewPin(9, 4, arch.S0XQ), []EndPoint{sinkB, NewPin(11, 2, arch.S0F1)}); err != nil {
		t.Fatalf("RouteFanout: %v", err)
	}
	if err := r.ReverseUnroute(sinkB); err != nil {
		t.Fatalf("ReverseUnroute: %v", err)
	}
	if err := r.Unroute(src); err != nil {
		t.Fatalf("Unroute: %v", err)
	}
	if err := r.UnrouteAll(); err != nil {
		t.Fatalf("UnrouteAll: %v", err)
	}
}

// TestParanoidVerifyCatchesCorruption corrupts the board behind the
// router's back (clearing a mid-path PIP at the device level) and requires
// the next paranoid-verified op to fail with an oracle violation.
func TestParanoidVerifyCatchesCorruption(t *testing.T) {
	r := newParanoidRouter(t, Options{})
	src := NewPin(5, 7, arch.S1YQ)
	if err := r.RouteNet(src, NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	// Sever the net mid-path: clear the PIP that drives the sink pin.
	st, err := r.Dev.Canon(6, 8, arch.S0F3)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := r.Dev.DriverOf(st)
	if !ok {
		t.Fatal("sink has no driver after a successful route")
	}
	if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
		t.Fatal(err)
	}
	r.opt.ParanoidVerify = true
	if err := r.RouteNet(NewPin(9, 4, arch.S0XQ), NewPin(11, 2, arch.S0F1)); err == nil {
		t.Fatal("paranoid verify missed a severed claimed connection")
	}
}

// TestUnrouteAllRetiresRecords is the reproducer for a harness-found bug:
// UnrouteAll cleared every PIP but left the connection records live, so
// the router kept claiming nets that no longer existed on the device (and
// any oracle audit after a teardown failed with discontinuities).
func TestUnrouteAllRetiresRecords(t *testing.T) {
	r := newParanoidRouter(t, Options{})
	if err := r.RouteNet(NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(NewPin(9, 4, arch.S0XQ), NewPin(11, 2, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	if err := r.UnrouteAll(); err != nil {
		t.Fatal(err)
	}
	if n := r.ConnectionCount(); n != 0 {
		t.Fatalf("UnrouteAll left %d live connection records", n)
	}
	if claims := r.OracleClaims(); len(claims) != 0 {
		t.Fatalf("UnrouteAll left %d live claims", len(claims))
	}
	if err := r.VerifyOracle(); err != nil {
		t.Fatalf("board not oracle-clean after UnrouteAll: %v", err)
	}
}

// TestFanoutPartialFailureRollsBack is the reproducer for the second
// harness-found bug: a fanout that failed on a later sink left the
// already-routed sinks configured with no connection record claiming them
// — a phantom net invisible to trace, unroute, and port memory.
func TestFanoutPartialFailureRollsBack(t *testing.T) {
	r := newParanoidRouter(t, Options{})
	// Occupy a far sink with another net so the fanout's last sink fails.
	blocked := NewPin(12, 20, arch.S0F3)
	if err := r.RouteNet(NewPin(12, 19, arch.S1YQ), blocked); err != nil {
		t.Fatal(err)
	}
	before := r.Dev.OnPIPCount()
	conns := r.ConnectionCount()

	// Near sink routes fine; the blocked far sink must fail the call.
	err := r.RouteFanout(NewPin(5, 7, arch.S1YQ),
		[]EndPoint{NewPin(6, 8, arch.S0F3), blocked})
	if err == nil {
		t.Fatal("fanout to an already-driven sink succeeded")
	}
	if got := r.Dev.OnPIPCount(); got != before {
		t.Fatalf("failed fanout left %d PIPs on the board (was %d): phantom net", got, before)
	}
	if got := r.ConnectionCount(); got != conns {
		t.Fatalf("failed fanout changed connection records: %d -> %d", conns, got)
	}
	if err := r.VerifyOracle(); err != nil {
		t.Fatalf("board not oracle-clean after failed fanout: %v", err)
	}
}

// TestPartialFailureRouteNet exercises the same rollback through RouteNet
// with a multi-pin port sink.
func TestPartialFailureRouteNet(t *testing.T) {
	r := newParanoidRouter(t, Options{})
	blocked := NewPin(12, 20, arch.S0F3)
	if err := r.RouteNet(NewPin(12, 19, arch.S1YQ), blocked); err != nil {
		t.Fatal(err)
	}
	before := r.Dev.OnPIPCount()

	g := NewGroup("g")
	sink := g.NewPort("d", In)
	if err := sink.Bind(NewPin(6, 8, arch.S0F3), blocked); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(NewPin(5, 7, arch.S1YQ), sink); err == nil {
		t.Fatal("multi-pin route onto a driven sink succeeded")
	}
	if got := r.Dev.OnPIPCount(); got != before {
		t.Fatalf("failed route left %d PIPs on the board (was %d)", got, before)
	}
	if err := r.VerifyOracle(); err != nil {
		t.Fatalf("board not oracle-clean after failed route: %v", err)
	}
}
