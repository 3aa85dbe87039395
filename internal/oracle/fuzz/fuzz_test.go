package fuzz

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/oracle"
)

// TestDifferentialSmoke runs short seeded campaigns over scenario.Grid
// (parallelism 1 and 8) and requires zero divergences. The long campaign
// lives in cmd/jverify; this is the CI floor, and its seed-1 row is the
// campaign `make verify` runs.
func TestDifferentialSmoke(t *testing.T) {
	for _, row := range []Options{{Seed: 42, Steps: 120}, {Seed: 1, Steps: 150}} {
		if testing.Short() {
			row.Steps = 40
		}
		if raceEnabled {
			row.Steps = 30 // ~5x slower per step under the race detector
		}
		res, err := Run(row)
		if err != nil {
			t.Fatalf("seed %d: differential run diverged: %v", row.Seed, err)
		}
		if res.Steps != row.Steps {
			t.Fatalf("seed %d: ran %d steps, want %d", row.Seed, res.Steps, row.Steps)
		}
		if res.Audits == 0 {
			t.Fatalf("seed %d: no oracle audits performed", row.Seed)
		}
		if len(res.Ops) < 4 {
			t.Fatalf("seed %d: op mix too narrow: %v", row.Seed, res.Ops)
		}
	}
}

// TestDifferentialNoCSmoke mixes mesh obstacle churn into the script: a
// 3x3 NoC overlay is built on every board and the generator interleaves
// connectivity-preserving obstacle place/clear ops with the usual route
// churn. Every step still demands outcome, claim, and byte agreement plus
// a full strict oracle audit — the per-step audit the obstacle ops ride on.
func TestDifferentialNoCSmoke(t *testing.T) {
	steps := 100
	if testing.Short() {
		steps = 40
	}
	if raceEnabled {
		steps = 25
	}
	res, err := Run(Options{Seed: 7, Steps: steps, NoC: true, MaxLive: 30})
	if err != nil {
		t.Fatalf("NoC differential run diverged: %v", err)
	}
	if res.Ops["noc-obstacle"] == 0 {
		t.Fatalf("script mixed no obstacle ops: %v", res.Ops)
	}
	if res.Audits == 0 {
		t.Fatal("no oracle audits performed")
	}
}

// TestReplayKeepsRememberedDetour pins what route memory does to bytes: a
// replayed net keeps the path it was first given, where a fresh router
// routing the same endpoints on the same board finds another. Neither is
// wrong — both boards are oracle-clean with equal claims — which is why the
// differential harness compares boards that run one script on one kind of
// router, and why a detour's way home is kept on its record: searching
// again would not find the old wires.
//
// Construction: a net is first routed through a congested corridor, so the
// path it learns is a detour. The congestion is then removed and the net
// is torn down and rerouted, and the router replays the learned detour. A
// fresh router routes only the victim on the open board and finds a
// different (straighter) path.
func TestReplayKeepsRememberedDetour(t *testing.T) {
	a := arch.NewVirtex()
	mk := func() (*device.Device, *core.Router) {
		dev, err := device.New(a, 16, 24)
		if err != nil {
			t.Fatal(err)
		}
		return dev, core.New(dev)
	}
	devReplay, replay := mk()
	devFresh, fresh := mk()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	src := core.NewPin(5, 4, arch.S1YQ)
	dst := core.NewPin(5, 12, arch.S0F3)

	// Congest the row-5 corridor between the endpoints with competing
	// east-west nets.
	blockers := []struct{ s, d core.Pin }{
		{core.NewPin(5, 5, arch.S0YQ), core.NewPin(5, 11, arch.S0G1)},
		{core.NewPin(5, 6, arch.S1XQ), core.NewPin(5, 10, arch.S0G2)},
		{core.NewPin(5, 5, arch.S0XQ), core.NewPin(5, 11, arch.S0G3)},
		{core.NewPin(5, 6, arch.S1YQ), core.NewPin(5, 10, arch.S0G4)},
	}
	for _, b := range blockers {
		must("blocker route", replay.RouteNet(b.s, b.d))
	}

	// Route the victim through the congestion: it learns a detour.
	must("victim route", replay.RouteNet(src, dst))
	// Tear everything down; the router remembers the detour.
	must("victim unroute", replay.Unroute(src))
	for _, b := range blockers {
		must("blocker unroute", replay.Unroute(b.s))
	}

	// Reroute on the now-open board, beside a fresh router's first route.
	must("victim reroute", replay.RouteNet(src, dst))
	must("fresh route", fresh.RouteNet(src, dst))

	sReplay, err := devReplay.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	sFresh, err := devFresh.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sReplay, sFresh) {
		t.Fatal("boards are byte-identical; the replayed detour did not differ from the fresh route (construction no longer congests the corridor, or the router no longer replays?)")
	}
	diff, err := oracle.DiffStreams(a, sReplay, sFresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) == 0 {
		t.Fatal("streams differ but PIP diff is empty")
	}
	t.Logf("replayed and fresh boards differ by %d PIPs after churn", len(diff))

	// The divergence is byte-level only: both boards must be fully
	// oracle-equivalent.
	claimsReplay, claimsFresh := replay.OracleClaims(), fresh.OracleClaims()
	if !claimsEqual(claimsReplay, claimsFresh) {
		t.Fatal("claims diverged — this would be a real bug, not the documented byte divergence")
	}
	if err := oracle.Audit(a, sReplay, claimsReplay, true); err != nil {
		t.Fatalf("replaying board not oracle-clean: %v", err)
	}
	if err := oracle.Audit(a, sFresh, claimsFresh, true); err != nil {
		t.Fatalf("fresh board not oracle-clean: %v", err)
	}
}
