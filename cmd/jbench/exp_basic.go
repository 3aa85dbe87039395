package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/device"
	"repro/internal/workload"
)

// runE1 prints the architecture audit corresponding to the paper's Fig. 1
// and §2 resource description.
func runE1(cfg config) error {
	d, err := newDevice(cfg)
	if err != nil {
		return err
	}
	fmt.Print(debug.ArchAudit(d))
	fmt.Println("\npaper values (§2): 24 singles/dir; 96 hexes/dir passing each GRM of which 12")
	fmt.Println("CLB-accessible; hex span 6; 12 long lines accessed every 6 blocks; 4 global")
	fmt.Println("clock nets; arrays 16x24 .. 64x96. The model instantiates the CLB-visible")
	fmt.Println("counts, which are what the routing API observes.")
	return nil
}

// runE2 performs the §3.1 worked example at all four levels and checks they
// produce identical connectivity.
func runE2(cfg config) error {
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	a := r.Dev.A
	src := core.NewPin(5, 7, arch.S1YQ)
	sink := core.NewPin(6, 8, arch.S0F3)
	tmpl, err := core.ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
	if err != nil {
		return err
	}
	levels := []struct {
		name string
		run  func() error
	}{
		{"route(row,col,from,to) x4", func() error {
			if err := r.Route(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
				return err
			}
			if err := r.Route(5, 7, arch.Out(1), a.Single(arch.East, 5)); err != nil {
				return err
			}
			if err := r.Route(5, 8, a.Single(arch.West, 5), a.Single(arch.North, 0)); err != nil {
				return err
			}
			return r.Route(6, 8, a.Single(arch.South, 0), arch.S0F3)
		}},
		{"route(Path)", func() error {
			return r.RoutePath(core.NewPath(5, 7, []arch.Wire{
				arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
			}))
		}},
		{"route(Pin,endWire,Template)", func() error {
			return r.RouteTemplate(src, arch.S0F3, tmpl)
		}},
		{"route(src,sink)", func() error { return r.RouteNet(src, sink) }},
	}
	t := newTable("level", "PIPs", "net sinks", "source confirmed")
	for _, l := range levels {
		if err := l.run(); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		net, err := r.Trace(src)
		if err != nil {
			return err
		}
		rt, err := r.ReverseTrace(sink)
		if err != nil {
			return err
		}
		t.add(l.name, len(net.PIPs), len(net.Sinks), rt.Source == src)
		if err := r.Unroute(src); err != nil {
			return err
		}
	}
	t.print()
	return nil
}

// runB1 measures the cost ordering of the four levels of control over a
// batch of random pairs: the paper's trade-off is configuration-time cost
// versus knowledge required ("The cost is longer execution time").
func runB1(cfg config) error {
	gen := workload.New(cfg.seed, cfg.rows, cfg.cols)
	type sample struct {
		src, sink core.Pin
		pips      []device.PIP
		path      core.Path
		tmpl      core.Template
	}
	// Discover a concrete route for each pair with the auto router so the
	// lower levels can replay it.
	var samples []sample
	for len(samples) < 60 {
		dist := 1 + gen.Rng.Intn(10)
		src, sink, err := gen.Pair(dist)
		if err != nil {
			return err
		}
		r, err := newRouter(cfg)
		if err != nil {
			return err
		}
		if err := r.RouteNet(src, sink); err != nil {
			continue
		}
		net, err := r.Trace(src)
		if err != nil {
			return err
		}
		s := sample{src: src, sink: sink, pips: net.PIPs}
		wires := []arch.Wire{src.W}
		var tvs []arch.TemplateValue
		for _, p := range net.PIPs {
			wires = append(wires, p.To)
			tvs = append(tvs, r.Dev.A.DriveTemplate(p.From, p.To))
		}
		s.path = core.NewPath(src.Row, src.Col, wires)
		s.tmpl = core.NewTemplate(tvs)
		samples = append(samples, s)
	}

	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	run := func(f func(s sample) error) (nsPerRoute float64, err error) {
		start := time.Now()
		const reps = 20
		for rep := 0; rep < reps; rep++ {
			for _, s := range samples {
				if err := f(s); err != nil {
					return 0, err
				}
				if err := r.Unroute(s.src); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(samples)), nil
	}

	t := newTable("level", "ns/route", "knowledge required")
	direct, err := run(func(s sample) error {
		for _, p := range s.pips {
			if err := r.Route(p.Row, p.Col, p.From, p.To); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.add("1 route(row,col,from,to)", fmt.Sprintf("%.0f", direct), "every wire and tile")
	path, err := run(func(s sample) error { return r.RoutePath(s.path) })
	if err != nil {
		return err
	}
	t.add("2 route(Path)", fmt.Sprintf("%.0f", path), "wire sequence")
	tmplNs, err := run(func(s sample) error { return r.RouteTemplate(s.src, s.sink.W, s.tmpl) })
	if err != nil {
		return err
	}
	t.add("3 route(Template)", fmt.Sprintf("%.0f", tmplNs), "directions only")
	auto, err := run(func(s sample) error { return r.RouteNet(s.src, s.sink) })
	if err != nil {
		return err
	}
	t.add("4 route(src,sink)", fmt.Sprintf("%.0f", auto), "none")
	t.print()
	ok := direct <= path && path <= tmplNs && direct <= auto
	fmt.Printf("shape check (direct <= path <= template, direct <= auto): %v\n", ok)
	fmt.Println("note: levels 1-3 replay routes discovered by level 4, so level 3's template")
	fmt.Println("is sometimes a maze-shaped zigzag; BenchmarkLevel* pins the clean ordering")
	fmt.Println("on the paper's fixed example (direct < path < template < auto).")
	return nil
}

// runB2 compares the auto-router strategies: predefined templates first
// (the paper's suggestion to "reduce the search space"), pure A* maze, and
// the Lee breadth-first baseline, across distances.
func runB2(cfg config) error {
	// A bigger fabric so long distances exist.
	big := config{seed: cfg.seed, rows: 32, cols: 48}
	t := newTable("dist", "tmpl ns", "tmpl nodes", "A* ns", "A* nodes", "Lee ns", "Lee nodes", "tmpl hit%")
	for _, dist := range []int{1, 2, 5, 10, 20, 40} {
		type res struct {
			ns    []float64
			nodes []float64
			hits  int
			total int
		}
		results := make(map[core.Algorithm]*res)
		for _, alg := range []core.Algorithm{core.TemplateFirst, core.AStar, core.Lee} {
			results[alg] = &res{}
			gen := workload.New(cfg.seed, big.rows, big.cols)
			for i := 0; i < 30; i++ {
				src, sink, err := gen.Pair(dist)
				if err != nil {
					return err
				}
				r, err := newRouter(big, core.WithAlgorithm(alg))
				if err != nil {
					return err
				}
				start := time.Now()
				err = r.RouteNet(src, sink)
				el := time.Since(start)
				if err != nil {
					continue
				}
				st := r.Stats()
				results[alg].ns = append(results[alg].ns, float64(el.Nanoseconds()))
				results[alg].nodes = append(results[alg].nodes, float64(st.NodesExplored))
				results[alg].hits += st.TemplateHits
				results[alg].total++
			}
		}
		tf, as, le := results[core.TemplateFirst], results[core.AStar], results[core.Lee]
		hitPct := 0.0
		if tf.total > 0 {
			hitPct = 100 * float64(tf.hits) / float64(tf.total)
		}
		t.add(dist,
			fmt.Sprintf("%.0f", median(tf.ns)), fmt.Sprintf("%.0f", median(tf.nodes)),
			fmt.Sprintf("%.0f", median(as.ns)), fmt.Sprintf("%.0f", median(as.nodes)),
			fmt.Sprintf("%.0f", median(le.ns)), fmt.Sprintf("%.0f", median(le.nodes)),
			fmt.Sprintf("%.0f", hitPct))
	}
	t.print()
	fmt.Println("shape: template-first explores the fewest states; Lee floods most.")
	return nil
}
