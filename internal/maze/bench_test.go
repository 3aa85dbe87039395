package maze_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/maze"
	"repro/internal/workload"
)

// The root package's benchmarks search a 16×24 array; these two run the
// kernel at the benchmark harness's geometry, once as a single-net search
// and once under negotiation. Rows of `make bench-go`, not a measurement:
// speed claims go through `go run ./benchmark`.

var benchSink int

// BenchmarkAStar searches 256 seeded pairs, one pair an iteration, on a
// 64×96 array in two rows. blank: pairs 24 tiles apart on an empty array.
// loaded: the p2p_cold shape — 400 live nets, routed by a core.Router from
// pairs 3, 8, 16, 30 and 50 tiles apart in turn, and, at the same
// distances, pairs between pins no live net holds that the router's
// templates miss, which are the pairs the workload searches. Each row
// reports the states explored per search: the loaded row's long,
// obstructed searches are what the workload's search time is made of.
func BenchmarkAStar(b *testing.B) {
	b.Run("blank", func(b *testing.B) {
		d := blankVirtex(b, 64, 96)
		gen := workload.ForDevice(1, d)
		pairs := make([]searchPair, 256)
		for i := range pairs {
			src, sink, err := gen.Pair(24)
			if err != nil {
				b.Fatal(err)
			}
			pairs[i] = searchPair{track(b, d, src), track(b, d, sink)}
		}
		benchSearch(b, d, pairs)
	})
	b.Run("loaded", func(b *testing.B) {
		d := blankVirtex(b, 64, 96)
		benchSearch(b, d, loadedPairs(b, d, 400, 256))
	})
}

type searchPair struct{ src, sink device.Track }

// loadedPairs routes live nets on d, then draws n pairs between pins no
// live net holds, at the distances p2p_cold draws, that the router routes
// by falling back to the maze search. Each is routed and unrouted to find
// out, so d is left with the live nets alone.
func loadedPairs(b *testing.B, d *device.Device, live, n int) []searchPair {
	dists := []int{3, 8, 16, 30, 50}
	gen := workload.ForDevice(1, d)
	r := core.New(d)
	used := map[core.Pin]bool{}
	draw := func(k int) (core.Pin, core.Pin) {
		for {
			src, sink, err := gen.Pair(dists[k%len(dists)])
			if err != nil {
				b.Fatal(err)
			}
			if !used[src] && !used[sink] {
				used[src], used[sink] = true, true
				return src, sink
			}
		}
	}
	for k := 0; k < live; k++ {
		if err := r.RouteNet(draw(k)); err != nil {
			b.Fatal(err)
		}
	}
	pairs := make([]searchPair, 0, n)
	for k := 0; len(pairs) < n; k++ {
		src, sink := draw(k)
		fallbacks := r.Stats().MazeFallbacks
		if err := r.RouteNet(src, sink); err != nil {
			continue // nothing was left on
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
		if r.Stats().MazeFallbacks > fallbacks {
			pairs = append(pairs, searchPair{track(b, d, src), track(b, d, sink)})
		}
	}
	return pairs
}

// benchSearch searches pairs on d in turn, one an iteration, and reports
// the states explored per search.
func benchSearch(b *testing.B, d *device.Device, pairs []searchPair) {
	explored := 0
	search := func(i int) {
		p := pairs[i%len(pairs)]
		r, err := maze.AStar(d, []device.Track{p.src}, p.sink, maze.Options{})
		if err != nil {
			b.Fatal(err)
		}
		explored += r.Explored
	}
	// One pass untimed: it derives the adjacency of every tile the searches
	// touch, which a device geometry pays once per process.
	for i := range pairs {
		search(i)
	}
	explored = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(i)
	}
	b.ReportMetric(float64(explored)/float64(b.N), "nodes/op")
	benchSink += explored
}

// BenchmarkNegotiate negotiates eight seeded designs of each of two shapes
// on a blank 64×96 array, one design an iteration, partitioned, on one
// worker and on two. clustered: Clustered(6, 32, 5), 192 nets in six
// contended knots, which split into balanced scopes. knots+crossbar: the
// batch_reload shape, whose crossbar scope (the crossbar and the knots its
// box overlaps) holds most of the search.
func BenchmarkNegotiate(b *testing.B) {
	d := blankVirtex(b, 64, 96)
	gen := workload.ForDevice(1, d)
	crossbars := make([][]maze.NetSpec, 8)
	for i := range crossbars {
		crossbars[i] = knotsAndCrossbar(b, gen, d)
	}
	for _, shape := range []struct {
		name    string
		designs [][]maze.NetSpec
	}{{"clustered", clusteredDesigns(b, d, 8)}, {"knots+crossbar", crossbars}} {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par=%d", shape.name, par), func(b *testing.B) {
				designs := shape.designs
				negotiate := func(i int) {
					res, err := maze.NegotiatedRoute(d, designs[i%len(designs)],
						maze.NegotiationOptions{Parallelism: par, Partition: true})
					if err != nil {
						b.Fatal(err)
					}
					benchSink += res.Explored
				}
				for i := range designs { // untimed, as above
					negotiate(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					negotiate(i)
				}
			})
		}
	}
}
