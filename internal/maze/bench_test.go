package maze_test

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/maze"
	"repro/internal/workload"
)

// The root package's benchmarks search a 16×24 array; these two run the
// kernel at the benchmark harness's geometry, once as a single-net search
// and once under negotiation. Rows of `make bench-go`, not a measurement:
// speed claims go through `go run ./benchmark`.

var benchSink int

// BenchmarkAStar searches 256 seeded pairs 24 tiles apart on a blank 64×96
// array, one pair an iteration.
func BenchmarkAStar(b *testing.B) {
	d := blankVirtex(b, 64, 96)
	gen := workload.ForDevice(1, d)
	type pair struct{ src, sink device.Track }
	pairs := make([]pair, 256)
	for i := range pairs {
		src, sink, err := gen.Pair(24)
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = pair{track(b, d, src), track(b, d, sink)}
	}
	search := func(i int) {
		p := pairs[i%len(pairs)]
		r, err := maze.AStar(d, []device.Track{p.src}, p.sink, maze.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += r.Explored
	}
	// One pass untimed: it derives the adjacency of every tile the searches
	// touch, which a device geometry pays once per process.
	for i := range pairs {
		search(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(i)
	}
}

// BenchmarkNegotiate negotiates eight seeded Clustered(6, 32, 5) designs —
// 192 nets in six contended knots — on a blank 64×96 array, one design an
// iteration, partitioned, on one worker and on two.
func BenchmarkNegotiate(b *testing.B) {
	d := blankVirtex(b, 64, 96)
	designs := clusteredDesigns(b, d, 8)
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
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
