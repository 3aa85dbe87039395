// Package repro_test is the benchmark harness: one testing.B benchmark per
// experiment in EXPERIMENTS.md (and a few infrastructure benchmarks), the
// wall-time side of each entry. The counts an entry claims are asserted by
// its TestPaper test (`go test -run TestPaper ./...`); these rows are not
// comparable across commits, and speed claims go through `go run
// ./benchmark`. `make prof` profiles BenchmarkChurn.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/maze"
	"repro/internal/sim"
	"repro/internal/workload"
)

func mustDevice(b *testing.B, rows, cols int) *device.Device {
	b.Helper()
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func mustRouter(b *testing.B, opts ...core.Option) *core.Router {
	return core.New(mustDevice(b, 16, 24), opts...)
}

// --- B1: cost ordering across the levels of control -------------------------

// The fixed §3.1 example at each level, route+unroute per iteration.

func BenchmarkLevelDirect(b *testing.B) {
	r := mustRouter(b)
	a := r.Dev.A
	pips := []device.PIP{
		{Row: 5, Col: 7, From: arch.S1YQ, To: arch.Out(1)},
		{Row: 5, Col: 7, From: arch.Out(1), To: a.Single(arch.East, 5)},
		{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)},
		{Row: 6, Col: 8, From: a.Single(arch.South, 0), To: arch.S0F3},
	}
	src := core.NewPin(5, 7, arch.S1YQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pips {
			if err := r.Route(p.Row, p.Col, p.From, p.To); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelPath(b *testing.B) {
	r := mustRouter(b)
	a := r.Dev.A
	p := core.NewPath(5, 7, []arch.Wire{
		arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
	})
	src := core.NewPin(5, 7, arch.S1YQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RoutePath(p); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelTemplate(b *testing.B) {
	r := mustRouter(b)
	tmpl := core.NewTemplate([]arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVNorth1, arch.TVClbIn})
	src := core.NewPin(5, 7, arch.S1YQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteTemplate(src, arch.S0F3, tmpl); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelAuto(b *testing.B) {
	r := mustRouter(b)
	src := core.NewPin(5, 7, arch.S1YQ)
	sink := core.NewPin(6, 8, arch.S0F3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteNet(src, sink); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B2: template-first vs maze algorithms across distance ------------------

// benchAutoAt routes and unroutes one pair dist tiles apart an iteration,
// each on a router made outside the timer for that iteration: a router that
// has seen the pair replays it from its route cache, and the algorithm the
// row names would not run.
func benchAutoAt(b *testing.B, alg core.Algorithm, dist int) {
	d := mustDevice(b, 32, 48)
	gen := workload.ForDevice(1, d)
	src, sink, err := gen.Pair(dist)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := core.New(d, core.WithAlgorithm(alg))
		b.StartTimer()
		if err := r.RouteNet(src, sink); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
		if hits := r.Stats().CacheHits; hits != 0 {
			b.Fatalf("%d routes replayed from the route cache", hits)
		}
	}
}

func BenchmarkAutoTemplateFirst(b *testing.B) {
	for _, dist := range []int{2, 10, 40} {
		b.Run(fmt.Sprintf("dist=%d", dist), func(b *testing.B) {
			benchAutoAt(b, core.TemplateFirst, dist)
		})
	}
}

func BenchmarkAutoMazeOnly(b *testing.B) {
	for _, dist := range []int{2, 10, 40} {
		b.Run(fmt.Sprintf("dist=%d", dist), func(b *testing.B) {
			benchAutoAt(b, core.AStar, dist)
		})
	}
}

func BenchmarkAutoLee(b *testing.B) {
	for _, dist := range []int{2, 10} { // Lee at 40 is pathologically slow
		b.Run(fmt.Sprintf("dist=%d", dist), func(b *testing.B) {
			benchAutoAt(b, core.Lee, dist)
		})
	}
}

// --- B3: fanout sharing ------------------------------------------------------

func BenchmarkFanoutShared(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			gen := workload.New(1, 16, 24)
			src, sinks, err := gen.Fanout(k, 6)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := mustRouter(b)
				if err := r.RouteFanout(src, sinks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFanoutIndividual(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			gen := workload.New(1, 16, 24)
			src, sinks, err := gen.Fanout(k, 6)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sinks {
					r := mustRouter(b)
					if err := r.RouteNet(src, s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- B4: bus routing ----------------------------------------------------------

func BenchmarkBus(b *testing.B) {
	for _, width := range []int{8, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			gen := workload.New(1, 16, 24)
			srcs, dsts, err := gen.Bus(width, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := mustRouter(b)
				if err := r.RouteBus(srcs, dsts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B13: negotiated batch routing --------------------------------------------

func crossbar(width int) (srcs, dsts []core.EndPoint) {
	for i := 0; i < width; i++ {
		srcs = append(srcs, core.NewPin(i%16, 6, arch.OutPin(i%arch.NumOutPins)))
		dsts = append(dsts, core.NewPin((i+width/2)%16, 8, arch.Input(i%arch.NumInputs)))
	}
	return srcs, dsts
}

// BenchmarkBatchCrossbar reloads a crossbar on one router: the bus routed
// by negotiation, then taken down by UnrouteAll — batch_reload's shape, on
// the router's warm scratch. A batch never consults the route cache, so
// every iteration negotiates afresh. `make prof-batch` profiles it.
func BenchmarkBatchCrossbar(b *testing.B) { benchBatchCrossbar(b) }

// BenchmarkBatchCrossbarParallel is BenchmarkBatchCrossbar with the
// negotiation's per-iteration rerouting spread over 4 workers. The result
// is bit-identical to the sequential run (snapshot-based iterations); the
// point of comparison is wall-clock only.
func BenchmarkBatchCrossbarParallel(b *testing.B) { benchBatchCrossbar(b, core.WithParallelism(4)) }

func benchBatchCrossbar(b *testing.B, opts ...core.Option) {
	for _, width := range []int{8, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			srcs, dsts := crossbar(width)
			r := mustRouter(b, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RouteBusBatch(srcs, dsts); err != nil {
					b.Fatal(err)
				}
				if err := r.UnrouteAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedyCrossbar(b *testing.B) {
	for _, width := range []int{8, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			srcs, dsts := crossbar(width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := mustRouter(b)
				if err := r.RouteBus(srcs, dsts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B5: RTR: unroute, churn, core swap ---------------------------------------

func BenchmarkUnrouteFanout(b *testing.B) {
	gen := workload.New(1, 16, 24)
	src, sinks, err := gen.Fanout(8, 6)
	if err != nil {
		b.Fatal(err)
	}
	r := mustRouter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteFanout(src, sinks); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReverseUnroute(b *testing.B) {
	gen := workload.New(1, 16, 24)
	src, sinks, err := gen.Fanout(8, 6)
	if err != nil {
		b.Fatal(err)
	}
	firstSink := sinks[0]
	r := mustRouter(b)
	if err := r.RouteFanout(src, sinks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReverseUnroute(firstSink); err != nil {
			b.Fatal(err)
		}
		if err := r.RouteNet(src, firstSink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChurn(b *testing.B) {
	r := mustRouter(b)
	gen := workload.ForDevice(1, r.Dev)
	ops, err := gen.Churn(200, 6, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			if op.Route {
				if err := r.RouteNet(op.Src, op.Sink); err != nil {
					b.Fatal(err)
				}
			} else if err := r.Unroute(op.Src); err != nil {
				b.Fatal(err)
			}
		}
		// Drain whatever is still live so iterations are identical.
		for _, c := range r.Connections() {
			if err := r.Unroute(c.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRTRSwap measures the §3.3 core replacement: unroute ports,
// remove, retune, relocate, reimplement, reconnect, ship partial bitstream.
func BenchmarkRTRSwap(b *testing.B) {
	a := arch.NewVirtex()
	session, err := jbits.NewSession(a, 16, 24)
	if err != nil {
		b.Fatal(err)
	}
	r := core.New(session.Dev)
	board, err := jbits.NewBoard("bench", a, 16, 24)
	if err != nil {
		b.Fatal(err)
	}
	mul, err := cores.NewConstMul("mul", 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	mul.Place(4, 10)
	if err := mul.Implement(r); err != nil {
		b.Fatal(err)
	}
	reg, err := cores.NewRegister("reg", mul.OutBits())
	if err != nil {
		b.Fatal(err)
	}
	reg.Place(4, 16)
	if err := reg.Implement(r); err != nil {
		b.Fatal(err)
	}
	if err := r.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		b.Fatal(err)
	}
	if _, err := session.SyncFull(board); err != nil {
		b.Fatal(err)
	}
	places := [2][2]int{{4, 10}, {9, 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range mul.Ports("p") {
			if err := r.Unroute(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := mul.Remove(r); err != nil {
			b.Fatal(err)
		}
		if err := mul.SetConstant(r, uint64(1+i%3)); err != nil {
			b.Fatal(err)
		}
		pl := places[(i+1)%2]
		if err := mul.Place(pl[0], pl[1]); err != nil {
			b.Fatal(err)
		}
		if err := mul.Implement(r); err != nil {
			b.Fatal(err)
		}
		for _, p := range mul.Ports("p") {
			if err := r.Reconnect(p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := session.SyncPartial(board); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B7: trace / reverse trace -------------------------------------------------

func BenchmarkTrace(b *testing.B) {
	r := mustRouter(b)
	gen := workload.ForDevice(1, r.Dev)
	src, sinks, err := gen.Fanout(8, 6)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.RouteFanout(src, sinks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Trace(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReverseTrace(b *testing.B) {
	r := mustRouter(b)
	gen := workload.ForDevice(1, r.Dev)
	src, sinks, err := gen.Fanout(8, 6)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.RouteFanout(src, sinks); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReverseTrace(sinks[i%len(sinks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B8: long-line ablation -----------------------------------------------------

func benchLong(b *testing.B, useLongs bool) {
	d := mustDevice(b, 32, 48)
	r := core.New(d, core.WithLongLines(useLongs))
	src := core.NewPin(6, 0, arch.S0X)
	sink := core.NewPin(6, 42, arch.S0F1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteNet(src, sink); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongLinesOff(b *testing.B) { benchLong(b, false) }
func BenchmarkLongLinesOn(b *testing.B)  { benchLong(b, true) }

// --- B9: portability --------------------------------------------------------------

func BenchmarkPortability(b *testing.B) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		b.Run(a.Name, func(b *testing.B) {
			d, err := device.New(a, 16, 24)
			if err != nil {
				b.Fatal(err)
			}
			r := core.New(d)
			src := core.NewPin(2, 2, arch.S0X)
			sink := core.NewPin(9, 13, arch.S0F1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RouteNet(src, sink); err != nil {
					b.Fatal(err)
				}
				if err := r.Unroute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B10: core implementation and simulation ----------------------------------------

func BenchmarkCounterImplement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mustRouter(b)
		ctr, err := cores.NewCounter("ctr", 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := ctr.Place(4, 10); err != nil {
			b.Fatal(err)
		}
		if err := ctr.Implement(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimStep(b *testing.B) {
	r := mustRouter(b)
	ctr, err := cores.NewCounter("ctr", 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := ctr.Place(4, 10); err != nil {
		b.Fatal(err)
	}
	if err := ctr.Implement(r); err != nil {
		b.Fatal(err)
	}
	s := sim.New(r.Dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B11: device scaling --------------------------------------------------------------

func BenchmarkDeviceScale(b *testing.B) {
	for _, size := range arch.VirtexSizes() {
		b.Run(fmt.Sprintf("%s_%dx%d", size.Name, size.Rows, size.Cols), func(b *testing.B) {
			d := mustDevice(b, size.Rows, size.Cols)
			r := core.New(d)
			src := core.NewPin(2, 2, arch.S0X)
			sink := core.NewPin(7, 7, arch.S0F1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.RouteNet(src, sink); err != nil {
					b.Fatal(err)
				}
				if err := r.Unroute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B15: IOB and Block RAM routing -------------------------------------------

func BenchmarkIOBPadToPad(b *testing.B) {
	r := mustRouter(b)
	src := core.NewPin(5, 0, arch.IOBIn(0))
	sink := core.NewPin(9, 23, arch.IOBOut(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteNet(src, sink); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBRAMRoute(b *testing.B) {
	r := mustRouter(b)
	src := core.NewPin(5, 2, arch.S0X)
	sink := core.NewPin(8, 6, arch.BRAMAddr(0)) // column 6 is a BRAM column
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RouteNet(src, sink); err != nil {
			b.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- infrastructure -----------------------------------------------------------------------

func BenchmarkSetClearPIP(b *testing.B) {
	d := mustDevice(b, 16, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SetPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
			b.Fatal(err)
		}
		if err := d.ClearPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceAging answers the finding recorded in benchmark/README.md:
// one Device re-used for 20 repetitions of the p2p_cold script got 40%
// slower at identical work, which is why that workload builds a fresh
// device per repetition. Here one 64x96 device runs the same 10 000-op
// route/unroute script for 20 rounds, a fresh Router (cold route cache)
// each round and every net unrouted at the end of it, so only the device
// carries anything over. aging_ratio is round 20's wall time over round
// 1's; there is no assertion. EXPERIMENTS B25 records it for the map-keyed
// state and for the index-addressed state that replaced it.
func BenchmarkDeviceAging(b *testing.B) {
	const rounds, nOps, window = 20, 10000, 400
	type agingOp struct {
		route     bool
		src, sink core.Pin
	}
	dists := []int{3, 8, 16, 30, 50}
	gen := workload.ForDevice(1, mustDevice(b, 64, 96))
	liveSrc, liveSink := map[core.Pin]bool{}, map[core.Pin]bool{}
	var script, live []agingOp
	for drawn := 0; len(script) < nOps; drawn++ {
		src, sink, err := gen.Pair(dists[drawn%len(dists)])
		if err != nil {
			b.Fatal(err)
		}
		if liveSrc[src] || liveSink[sink] {
			continue // a shared pin would merge two nets or contend
		}
		liveSrc[src], liveSink[sink] = true, true
		script = append(script, agingOp{true, src, sink})
		live = append(live, agingOp{false, src, sink})
		if len(live) > window && len(script) < nOps {
			old := live[0]
			live = live[1:]
			delete(liveSrc, old.src)
			delete(liveSink, old.sink)
			script = append(script, old)
		}
	}
	round := func(dev *device.Device) time.Duration {
		r := core.New(dev)
		start := time.Now()
		for _, op := range script {
			var err error
			if op.route {
				err = r.RouteNet(op.src, op.sink)
			} else {
				err = r.Unroute(op.src)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		took := time.Since(start)
		for _, c := range r.Connections() {
			if err := r.Unroute(c.Source); err != nil {
				b.Fatal(err)
			}
		}
		if n := dev.OnPIPCount(); n != 0 {
			b.Fatalf("%d PIPs left on the device after a round", n)
		}
		return took
	}
	round(mustDevice(b, 64, 96)) // derive the shared adjacency and fill the pools on another device
	b.ResetTimer()
	var first, last time.Duration
	for i := 0; i < b.N; i++ {
		dev := mustDevice(b, 64, 96)
		for n := 1; n <= rounds; n++ {
			took := round(dev)
			switch n {
			case 1:
				first += took
			case rounds:
				last += took
			}
		}
	}
	b.ReportMetric(float64(last)/float64(first), "aging_ratio")
}

func BenchmarkFullBitstream(b *testing.B) {
	d := mustDevice(b, 16, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.FullConfig(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialBitstream(b *testing.B) {
	d := mustDevice(b, 16, 24)
	d.ClearDirty()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := d.SetPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := d.PartialConfig(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.ClearPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
			b.Fatal(err)
		}
		d.ClearDirty()
		b.StartTimer()
	}
}

// BenchmarkTemplateRoute measures the raw template engine (maze package).
func BenchmarkTemplateRoute(b *testing.B) {
	d := mustDevice(b, 16, 24)
	start, err := d.Canon(5, 7, arch.S1YQ)
	if err != nil {
		b.Fatal(err)
	}
	tmpl := []arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVNorth1, arch.TVClbIn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maze.TemplateRoute(d, start, arch.S0F3, tmpl); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B17: relocation-aware route cache -----------------------------------------

// BenchmarkReconnect measures the §3.3 port-memory restore loop: with the
// route cache on, each Reconnect replays the remembered path instead of
// searching.
func BenchmarkReconnect(b *testing.B) {
	r := mustRouter(b)
	g := core.NewGroup("cm")
	out := g.NewPort("q", core.Out)
	if err := out.Bind(core.NewPin(4, 4, arch.S0X)); err != nil {
		b.Fatal(err)
	}
	if err := r.RouteNet(out, core.NewPin(10, 16, arch.S0F3)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Unroute(out); err != nil {
			b.Fatal(err)
		}
		if err := r.Reconnect(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplace measures the packaged cores.Replace flow (unroute ports,
// region rip-up, relocate, reimplement, reconnect, restore crossing nets),
// bouncing a core between two placements.
func BenchmarkReplace(b *testing.B) {
	r := mustRouter(b)
	mul, err := cores.NewConstMul("mul", 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := mul.Place(4, 10); err != nil {
		b.Fatal(err)
	}
	if err := mul.Implement(r); err != nil {
		b.Fatal(err)
	}
	reg, err := cores.NewRegister("reg", mul.OutBits())
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Place(4, 16); err != nil {
		b.Fatal(err)
	}
	if err := reg.Implement(r); err != nil {
		b.Fatal(err)
	}
	if err := r.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		b.Fatal(err)
	}
	places := [2][2]int{{9, 10}, {4, 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := places[i%2]
		if err := cores.Replace(r, mul, pl[0], pl[1], []string{"p", "x"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
