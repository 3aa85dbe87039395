package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// runBatch builds a fresh device, routes the generated workload with the
// given parallelism, and returns the resulting full bitstream and stats.
func runBatch(t *testing.T, par, rows, cols int,
	gen func(*workload.Gen) ([]core.EndPoint, []core.EndPoint)) ([]byte, core.Stats) {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(d, core.WithParallelism(par))
	srcs, dsts := gen(workload.ForDevice(7, d))
	if err := r.RouteBusBatch(srcs, dsts); err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	cfg, err := d.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, r.Stats()
}

// normPartition zeroes the partition-observability counter, which
// describes structure, not the routed result. All remaining counters —
// including BatchIterations and NodesExplored — must match exactly.
func normPartition(s core.Stats) core.Stats {
	s.PartitionRegions = 0
	return s
}

// TestRouteBatchParallelDeterminism: the public guarantee of the
// Parallelism option — any worker count produces a byte-identical
// bitstream and identical (structure-normalized) router stats. That the
// partitioned negotiation every RouteBatch runs equals the whole-device
// loop is held one layer down (maze.TestPartitionEqualsGlobal,
// TestNegotiationDigests).
func TestRouteBatchParallelDeterminism(t *testing.T) {
	workloads := map[string]func(*workload.Gen) ([]core.EndPoint, []core.EndPoint){
		"crossbar": func(g *workload.Gen) ([]core.EndPoint, []core.EndPoint) {
			srcs, dsts, err := g.Crossbar(10, 8)
			if err != nil {
				t.Fatal(err)
			}
			return srcs, dsts
		},
		"bus": func(g *workload.Gen) ([]core.EndPoint, []core.EndPoint) {
			srcs, dsts, err := g.Bus(12, 10)
			if err != nil {
				t.Fatal(err)
			}
			return srcs, dsts
		},
	}
	// "cache-on": the batch is routed with the router's route memory live,
	// as every caller routes it.
	for name, gen := range workloads {
		t.Run(name, func(t *testing.T) {
			t.Run("cache-on", func(t *testing.T) {
				cfgSeq, statsSeq := runBatch(t, 1, 16, 24, gen)
				for _, par := range []int{2, 8} {
					cfg, stats := runBatch(t, par, 16, 24, gen)
					if !bytes.Equal(cfg, cfgSeq) {
						t.Errorf("par %d: bitstream differs from sequential", par)
					}
					if got, want := normPartition(stats), normPartition(statsSeq); got != want {
						t.Errorf("par %d: stats %+v, sequential %+v", par, got, want)
					}
				}
			})
		})
	}
}

// TestRouteBatchPartitionedClusters: on a device big enough to hold apart
// clusters, a clustered workload must split into multiple scopes, observable
// in Stats, and produce the same bytes at every worker count.
func TestRouteBatchPartitionedClusters(t *testing.T) {
	gen := func(g *workload.Gen) ([]core.EndPoint, []core.EndPoint) {
		srcs, dsts, err := g.Clustered(6, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		return srcs, dsts
	}
	var cfgRef []byte
	var statsRef core.Stats
	for _, par := range []int{1, 2, 8} {
		cfg, stats := runBatch(t, par, 64, 96, gen)
		if cfgRef == nil {
			cfgRef, statsRef = cfg, stats
		}
		if !bytes.Equal(cfg, cfgRef) {
			t.Errorf("par %d: bitstream differs from sequential", par)
		}
		if normPartition(stats) != normPartition(statsRef) {
			t.Errorf("par %d: stats %+v, sequential %+v", par, stats, statsRef)
		}
		if stats.PartitionRegions < 2 {
			t.Errorf("par %d: clustered workload produced %d regions", par, stats.PartitionRegions)
		}
	}
}

// TestRelocatedReplayParallelDeterminism: a router that learned a fan-net
// workload W, returned the device to blank and then routes W shifted by
// (3, 5) replays the learned templates relocated; a batch routed on top of
// that replayed state configures the same bytes at every worker count.
func TestRelocatedReplayParallelDeterminism(t *testing.T) {
	const rows, cols = 16, 24
	const shiftR, shiftC = 3, 5
	// W is generated in the array less the shift, so Q stays on the array.
	w, err := workload.New(11, rows-shiftR, cols-shiftC).FanNets(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]workload.FanNet, len(w))
	for i, n := range w {
		q[i].Src = core.NewPin(n.Src.Row+shiftR, n.Src.Col+shiftC, n.Src.W)
		for _, s := range n.Sinks {
			q[i].Sinks = append(q[i].Sinks, core.NewPin(s.Row+shiftR, s.Col+shiftC, s.W))
		}
	}
	var ref []byte
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			d, err := device.New(arch.NewVirtex(), rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			r := core.New(d, core.WithParallelism(par))
			routeFans(t, r, w)
			if err := r.UnrouteAll(); err != nil {
				t.Fatal(err)
			}
			before := r.Stats().CacheHits
			routeFans(t, r, q)
			if r.Stats().CacheHits == before {
				t.Error("the shifted workload replayed no learned template")
			}
			srcs, dsts, err := workload.ForDevice(7, d).Bus(8, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.RouteBusBatch(srcs, dsts); err != nil {
				t.Fatal(err)
			}
			cfg, err := d.FullConfig()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = cfg
			} else if !bytes.Equal(cfg, ref) {
				t.Error("bitstream differs from par=1")
			}
		})
	}
}
