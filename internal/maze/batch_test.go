package maze_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/maze"
	"repro/internal/workload"
)

// These tests draw their batches from internal/workload, which imports
// core and so cannot be imported from inside package maze.

func blankVirtex(t testing.TB, rows, cols int) *device.Device {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func track(t testing.TB, d *device.Device, p core.Pin) device.Track {
	t.Helper()
	tr, err := d.Canon(p.Row, p.Col, p.W)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pairSpecs makes one single-sink net of every (source, sink) pair.
func pairSpecs(t testing.TB, d *device.Device, srcs, dsts []core.Pin) []maze.NetSpec {
	t.Helper()
	specs := make([]maze.NetSpec, len(srcs))
	for i := range srcs {
		specs[i] = maze.NetSpec{Source: track(t, d, srcs[i]), Sinks: []device.Track{track(t, d, dsts[i])}}
	}
	return specs
}

func pinsOf(t testing.TB, eps []core.EndPoint) []core.Pin {
	t.Helper()
	pins := make([]core.Pin, len(eps))
	for i, e := range eps {
		pins[i] = e.(core.Pin)
	}
	return pins
}

// knotsAndCrossbar draws the batch_reload design shape — Clustered(6, 32, 5)
// knots plus one Crossbar(16, 20) — under the endpoint rule the benchmark
// started with: the crossbar is redrawn only until none of its endpoints
// shares a tile with a knot endpoint. It may still lie across a knot's
// corridor, which is the case TestNegotiatedRouteNonConvergence pins.
func knotsAndCrossbar(t testing.TB, gen *workload.Gen, d *device.Device) []maze.NetSpec {
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
			return pairSpecs(t, d, append(srcs, xs...), append(dsts, xd...))
		}
	}
}

// init lends the shape to the tests inside package maze.
func init() {
	maze.KnotsAndCrossbar = func(t testing.TB, d *device.Device) []maze.NetSpec {
		return knotsAndCrossbar(t, workload.ForDevice(1, d), d)
	}
}

// batchDigest hashes what a negotiation decided: every net's PIPs in order,
// the iteration count and the explored total.
func batchDigest(res *maze.BatchResult) string {
	h := sha256.New()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(len(res.Nets))
	for _, pips := range res.Nets {
		put(len(pips))
		for _, p := range pips {
			put(p.Row, p.Col, int(p.From), int(p.To))
		}
	}
	put(res.Iterations, res.Explored)
	return hex.EncodeToString(h.Sum(nil))
}

// TestNegotiationDigests pins the negotiated result of eight seeded designs
// (one of them under both cost models): SHA-256 over BatchResult.Nets,
// Iterations and Explored, each at Partition on and off and at 1, 2 and 8
// workers (2 is the benchmark harness's GOMAXPROCS). The digests were
// generated at the last commit that had a search loop of its own in
// negotiate.go (PR 19, 56d7ffe), so they hold the shared kernel's
// negotiated policy to that loop's bytes: hop model, heuristic constants,
// confinement, surcharge, tie-breaking. Caught by it, for one: a tail cap of
// 4 tiles (the single-net value) in the negotiated heuristic moves every row
// but bus16.
func TestNegotiationDigests(t *testing.T) {
	type design struct {
		name   string
		rows   int
		cols   int
		opt    maze.Options
		nets   func(t testing.TB, gen *workload.Gen, d *device.Device) []maze.NetSpec
		seed   int64
		digest string
	}
	bus := func(width, span int) func(testing.TB, *workload.Gen, *device.Device) []maze.NetSpec {
		return func(t testing.TB, gen *workload.Gen, d *device.Device) []maze.NetSpec {
			srcs, dsts, err := gen.Bus(width, span)
			if err != nil {
				t.Fatal(err)
			}
			return pairSpecs(t, d, pinsOf(t, srcs), pinsOf(t, dsts))
		}
	}
	fans := func(k, fan, radius int) func(testing.TB, *workload.Gen, *device.Device) []maze.NetSpec {
		return func(t testing.TB, gen *workload.Gen, d *device.Device) []maze.NetSpec {
			nets, err := gen.FanNets(k, fan, radius)
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]maze.NetSpec, len(nets))
			for i, n := range nets {
				specs[i].Source = track(t, d, n.Src)
				for _, s := range n.Sinks {
					specs[i].Sinks = append(specs[i].Sinks, track(t, d, s))
				}
			}
			return specs
		}
	}
	crossbar := func(t testing.TB, gen *workload.Gen, d *device.Device) []maze.NetSpec {
		srcs, dsts, err := gen.CrossbarPins(16, 20)
		if err != nil {
			t.Fatal(err)
		}
		return pairSpecs(t, d, srcs, dsts)
	}
	designs := []design{
		{name: "knots+crossbar/seed1", rows: 64, cols: 96, seed: 1, nets: knotsAndCrossbar,
			digest: "0a9d79905a667b75bcc38c00420db099d872bd39eb66f8027d89c7bd4016cbd7"},
		{name: "knots+crossbar/seed2", rows: 64, cols: 96, seed: 2, nets: knotsAndCrossbar,
			digest: "b275afe480347746be498dc109ee4d88f4830179b141928b799ca598185a5b31"},
		{name: "crossbar/seed3", rows: 64, cols: 96, seed: 3, nets: crossbar,
			digest: "87e92c8a2991a735e27cd8cf781c0298ade3ec57efd048cdd9caa896c92c8eb2"},
		{name: "crossbar/seed4/longs", rows: 64, cols: 96, seed: 4, nets: crossbar,
			opt:    maze.Options{UseLongLines: true},
			digest: "385105bca8439e7634409b6d2fd186c392e6b3eb24043316aad7df003f448a03"},
		{name: "bus16/seed5", rows: 16, cols: 24, seed: 5, nets: bus(16, 12),
			digest: "45a3080bfbfbafbf5660b4234a32cf99206c8e2fc5d004b9780100b8e9c29758"},
		{name: "bus32/seed6/avoid", rows: 64, cols: 96, seed: 6, nets: bus(32, 30),
			opt:    maze.Options{Avoid: []maze.Rect{{Row: 20, Col: 40, Height: 10, Width: 4}}},
			digest: "b74601d475cd707c95595a5af063b3ad412413474ecbec8d78ae180d8626f4ec"},
		{name: "fanout/seed7", rows: 32, cols: 48, seed: 7, nets: fans(60, 6, 3),
			digest: "19afa2199caf07d1a664737f4be35c967cc4e6d49115fdc01c67ed6bbf48ab69"},
		{name: "fanout/seed8", rows: 32, cols: 48, seed: 8, nets: fans(40, 8, 4),
			digest: "0434bb76a0af6e598e920275d2040172f64cd5ec4be3a8d967d5318bdc1ab26b"},
		// Negotiation counts wires under every cost model, so TimingDriven
		// leaves the digest above where it is. Making RouteBatch honour it
		// moves this row alone.
		{name: "fanout/seed8/delay", rows: 32, cols: 48, seed: 8, nets: fans(40, 8, 4),
			opt:    maze.Options{TimingDriven: true},
			digest: "0434bb76a0af6e598e920275d2040172f64cd5ec4be3a8d967d5318bdc1ab26b"},
	}
	for _, ds := range designs {
		t.Run(ds.name, func(t *testing.T) {
			if maze.RaceEnabled && ds.rows > 32 {
				t.Skip("64×96 reference comparison: skipped under -race")
			}
			d := blankVirtex(t, ds.rows, ds.cols)
			nets := ds.nets(t, workload.ForDevice(ds.seed, d), d)
			for _, partition := range []bool{false, true} {
				for _, par := range []int{1, 2, 8} {
					res, err := maze.NegotiatedRoute(d, nets, maze.NegotiationOptions{
						Options: ds.opt, Parallelism: par, Partition: partition})
					if err != nil {
						t.Fatalf("partition %v par %d: %v", partition, par, err)
					}
					if got := batchDigest(res); got != ds.digest {
						t.Errorf("partition %v par %d: %d nets, %d iterations, %d explored: digest %s, pinned %s",
							partition, par, len(nets), res.Iterations, res.Explored, got, ds.digest)
					}
				}
			}
		})
	}
}

// TestNegotiatedRouteNonConvergence pins a KNOWN DEFECT, not a wanted
// behaviour: the fifth design drawn from seed 10 lays its crossbar across a
// knot's corridor, and the negotiation gives up after its 30 iterations with
// nets still sharing tracks (benchmark/README.md met the same on 5 designs
// of 1 600 and tightened its draw rule to keep them out of the script). If
// this test starts failing because the batch routes, that is good news —
// check the result is legal and replace the test with one that says so. It
// is here so that a change to costs or tie-breaking cannot make the case
// come or go unnoticed.
func TestNegotiatedRouteNonConvergence(t *testing.T) {
	d := blankVirtex(t, 64, 96)
	gen := workload.ForDevice(10, d)
	var nets []maze.NetSpec
	for draw := 1; draw <= 5; draw++ {
		nets = knotsAndCrossbar(t, gen, d)
	}
	first := ""
	for _, partition := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			_, err := maze.NegotiatedRoute(d, nets, maze.NegotiationOptions{Parallelism: par, Partition: partition})
			if err == nil {
				t.Fatalf("partition %v par %d: the batch converged — see the comment above this test", partition, par)
			}
			if !errors.Is(err, maze.ErrUnroutable) || !strings.Contains(err.Error(), "did not converge in 30 iterations") {
				t.Fatalf("partition %v par %d: %v", partition, par, err)
			}
			if first == "" {
				first = err.Error()
			}
			if err.Error() != first {
				t.Errorf("partition %v par %d: %q, global sequential %q", partition, par, err, first)
			}
		}
	}
	if n := d.OnPIPCount(); n != 0 {
		t.Errorf("a failed negotiation left %d PIPs on the device", n)
	}
}
