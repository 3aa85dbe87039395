package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// pinNets makes one pin-to-pin batch net per source.
func pinNets(srcs, dsts []core.Pin) []core.BatchNet {
	nets := make([]core.BatchNet, len(srcs))
	for i := range srcs {
		nets[i] = core.BatchNet{Source: srcs[i], Sinks: []core.EndPoint{dsts[i]}}
	}
	return nets
}

// knotsAndCrossbar draws Clustered(6, 32, 5) plus one Crossbar(16, 20)
// whose endpoints share no tile with the knots' — the draw maze's
// TestNegotiatedRouteNonConvergence takes.
func knotsAndCrossbar(t *testing.T, gen *workload.Gen) []core.BatchNet {
	t.Helper()
	srcs, dsts, err := gen.ClusteredPins(6, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	taken := map[device.Coord]bool{}
	for i := range srcs {
		taken[device.Coord{Row: srcs[i].Row, Col: srcs[i].Col}] = true
		taken[device.Coord{Row: dsts[i].Row, Col: dsts[i].Col}] = true
	}
	for {
		xs, xd, err := gen.CrossbarPins(16, 20)
		if err != nil {
			t.Fatal(err)
		}
		clear := true
		for i := range xs {
			if taken[device.Coord{Row: xs[i].Row, Col: xs[i].Col}] || taken[device.Coord{Row: xd[i].Row, Col: xd[i].Col}] {
				clear = false
			}
		}
		if clear {
			return pinNets(append(srcs, xs...), append(dsts, xd...))
		}
	}
}

// TestNegotiationScratchReuse: a router negotiates in scratch it keeps from
// batch to batch, so a batch must route as it would on a fresh router
// whatever the router negotiated before. One router routes and unroutes a
// 40-net batch, then a 6-net one, then attempts a batch that does not
// converge, then routes the 40-net batch again: scratch shrunk, grown and
// left mid-negotiation. Each batch that routes must set the PIPs a fresh
// router sets, in its order — every record's path, records in commit order —
// report the same search, and leave the same records and the same
// configuration stream; no record's path may change after its batch.
func TestNegotiationScratchReuse(t *testing.T) {
	newDev := func() *device.Device {
		d, err := device.New(arch.NewVirtex(), 64, 96)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := newDev()
	gen := workload.ForDevice(3, d)
	clustered := func(clusters, per, spread int) []core.BatchNet {
		srcs, dsts, err := gen.ClusteredPins(clusters, per, spread)
		if err != nil {
			t.Fatal(err)
		}
		return pinNets(srcs, dsts)
	}
	// The 6-net batch is the 40-net batch's first six nets, and the last
	// batch the 40-net one again: scratch left stale would meet the same
	// tracks it was made on.
	first := clustered(2, 20, 3)
	small := first[:6]
	var failing []core.BatchNet
	fgen := workload.ForDevice(10, d)
	for draw := 1; draw <= 5; draw++ {
		failing = knotsAndCrossbar(t, fgen)
	}

	for _, par := range []int{1, 8} {
		r := core.New(newDev(), core.WithParallelism(par))
		// Every record the router makes, with a copy of its path as made:
		// a record must own its path, which later batches must not touch.
		var made []*core.Connection
		var paths [][]device.PIP
		for i, nets := range [][]core.BatchNet{first, small, failing, first} {
			before := r.Stats()
			err := r.RouteBatch(nets)
			if i == 2 {
				if err == nil || !strings.Contains(err.Error(), "did not converge") {
					t.Fatalf("par %d: the knots and crossbar: %v, want a batch that does not converge", par, err)
				}
				if n := r.Dev.OnPIPCount(); n != 0 || r.ConnectionCount() != 0 {
					t.Fatalf("par %d: a failed batch left %d PIPs and %d records", par, n, r.ConnectionCount())
				}
				continue
			}
			if err != nil {
				t.Fatalf("par %d: batch %d: %v", par, i, err)
			}
			fresh := core.New(newDev(), core.WithParallelism(par))
			if err := fresh.RouteBatch(nets); err != nil {
				t.Fatalf("par %d: batch %d on a fresh router: %v", par, i, err)
			}
			got, want := r.Stats().Sub(before), fresh.Stats()
			if got.PIPsSet != want.PIPsSet || got.NodesExplored != want.NodesExplored || got.BatchIterations != want.BatchIterations {
				t.Errorf("par %d: batch %d: %d PIPs, %d nodes, %d iterations; a fresh router %d, %d, %d", par, i,
					got.PIPsSet, got.NodesExplored, got.BatchIterations, want.PIPsSet, want.NodesExplored, want.BatchIterations)
			}
			if !reflect.DeepEqual(r.SnapshotConnections(), fresh.SnapshotConnections()) {
				t.Errorf("par %d: batch %d: the records differ from a fresh router's", par, i)
			}
			cfg, err := r.Dev.FullConfig()
			if err != nil {
				t.Fatal(err)
			}
			freshCfg, err := fresh.Dev.FullConfig()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cfg, freshCfg) {
				t.Errorf("par %d: batch %d: the configuration stream differs from a fresh router's", par, i)
			}
			for _, c := range r.Connections() {
				made, paths = append(made, c), append(paths, slices.Clone(c.Path))
			}
			if err := r.UnrouteAll(); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range made {
			if !slices.Equal(c.Path, paths[k]) {
				t.Fatalf("par %d: a record's path changed after the batch that made it", par)
			}
		}
	}
}
