package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/workload"
)

// runB8 is the §6 long-line ablation: "The use of long lines to improve the
// routing of certain nets will be examined." Straight horizontal nets of
// growing span are routed with long lines disabled (the paper's shipping
// configuration) and enabled; the timing model scores each net.
func runB8(cfg config) error {
	big := config{seed: cfg.seed, rows: 32, cols: 48}
	model := timing.Default()
	rng := rand.New(rand.NewSource(cfg.seed))
	t := newTable("span", "delay off (ns)", "delay on (ns)", "gain%", "PIPs off", "PIPs on", "long used%")
	for _, span := range []int{6, 12, 18, 24, 36, 42} {
		var offD, onD, offP, onP []float64
		longUsed := 0
		trials := 0
		for trial := 0; trial < 20; trial++ {
			row := rng.Intn(big.rows)
			col := rng.Intn(big.cols - span)
			// Align both ends to long-access columns half the time to
			// give longs their natural use case.
			if trial%2 == 0 {
				col -= col % 6
				if col+span >= big.cols {
					continue
				}
			}
			src := core.NewPin(row, col, arch.S0X)
			sink := core.NewPin(row, col+span, arch.S0F1)
			measure := func(useLongs bool) (delay, pips float64, usedLong bool, err error) {
				r, err := newRouterAt(big, core.WithLongLines(useLongs))
				if err != nil {
					return 0, 0, false, err
				}
				if err := r.RouteNet(src, sink); err != nil {
					return 0, 0, false, err
				}
				d, err := model.SinkDelay(r.Dev, sink)
				if err != nil {
					return 0, 0, false, err
				}
				net, err := r.Trace(src)
				if err != nil {
					return 0, 0, false, err
				}
				for _, p := range net.PIPs {
					k := r.Dev.A.ClassOf(p.To).Kind
					if k == arch.KindLongH || k == arch.KindLongV {
						usedLong = true
					}
				}
				return d, float64(len(net.PIPs)), usedLong, nil
			}
			dOff, pOff, _, err := measure(false)
			if err != nil {
				continue
			}
			dOn, pOn, used, err := measure(true)
			if err != nil {
				continue
			}
			trials++
			offD = append(offD, dOff)
			onD = append(onD, dOn)
			offP = append(offP, pOff)
			onP = append(onP, pOn)
			if used {
				longUsed++
			}
		}
		gain := 0.0
		if m := mean(offD); m > 0 {
			gain = 100 * (m - mean(onD)) / m
		}
		pct := 0.0
		if trials > 0 {
			pct = 100 * float64(longUsed) / float64(trials)
		}
		t.add(span, fmt.Sprintf("%.1f", mean(offD)), fmt.Sprintf("%.1f", mean(onD)),
			fmt.Sprintf("%.0f", gain), fmt.Sprintf("%.1f", mean(offP)),
			fmt.Sprintf("%.1f", mean(onP)), fmt.Sprintf("%.0f", pct))
	}
	t.print()
	fmt.Println("shape: long lines pay off only for large bounding boxes (§6).")
	return nil
}

func newRouterAt(cfg config, opts ...core.Option) (*core.Router, error) {
	d, err := device.New(arch.NewVirtex(), cfg.rows, cfg.cols)
	if err != nil {
		return nil, err
	}
	return core.New(d, opts...), nil
}

// runB9 runs an identical workload through identical router code on the
// Virtex-class architecture and on the deliberately different "Kestrel"
// fabric — §5's portability claim ("The API would not need to change").
func runB9(cfg config) error {
	archs := []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()}
	t := newTable("arch", "singles/dir", "mid-len", "routed", "median ns", "median nodes")
	for _, a := range archs {
		d, err := device.New(a, 16, 24)
		if err != nil {
			return err
		}
		r := core.New(d)
		gen := workload.ForDevice(cfg.seed, d)
		routed, total := 0, 0
		var ns, nodes []float64
		for i := 0; i < 150; i++ {
			src, sink, err := gen.Pair(1 + gen.Rng.Intn(12))
			if err != nil {
				return err
			}
			r.ResetStats()
			total++
			start := time.Now()
			if err := r.RouteNet(src, sink); err != nil {
				continue
			}
			routed++
			ns = append(ns, float64(time.Since(start).Nanoseconds()))
			nodes = append(nodes, float64(r.Stats().NodesExplored))
		}
		t.add(a.Name, a.SinglesPerDir, fmt.Sprintf("len-%d x%d", a.HexLen, a.HexesPerDir),
			fmt.Sprintf("%d/%d", routed, total),
			fmt.Sprintf("%.0f", median(ns)), fmt.Sprintf("%.0f", median(nodes)))
	}
	t.print()
	fmt.Println("the router, templates and maze code are shared verbatim across both rows.")
	return nil
}

// runB10 quantifies §4's usability claim: core+port design versus raw JBits.
// Building the counter takes two user-level calls; the same circuit by hand
// is one JBits Set per PIP and per LUT, each requiring architecture
// knowledge. The counter is then simulated to prove it counts.
func runB10(cfg config) error {
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	ctr, err := cores.NewCounter("ctr", 8, 1)
	if err != nil {
		return err
	}
	if err := ctr.Place(4, 10); err != nil {
		return err
	}
	if err := ctr.Implement(r); err != nil {
		return err
	}
	pips := r.Dev.OnPIPCount()
	luts := 0
	for _, c := range r.Dev.ActiveCLBs() {
		for n := 0; n < device.NumLUTs; n++ {
			if _, used := r.Dev.GetLUT(c.Row, c.Col, n); used {
				luts++
			}
		}
	}
	fmt.Printf("8-bit counter via cores+JRoute: 2 user calls (Place, Implement)\n")
	fmt.Printf("device operations automated:    %d PIPs + %d LUT writes\n", pips, luts)
	fmt.Printf("raw JBits equivalent:           %d manual Set calls, each needing wire-level knowledge\n", pips+luts)

	s := sim.New(r.Dev)
	var probes []sim.Probe
	for _, p := range ctr.Ports("q") {
		pin := p.Pins()[0]
		probes = append(probes, sim.Probe{Row: pin.Row, Col: pin.Col, W: pin.W})
	}
	ok := true
	for cyc := 0; cyc < 64; cyc++ {
		v, err := s.ReadWord(probes)
		if err != nil {
			return err
		}
		if v != uint64(cyc)&0xFF {
			ok = false
			fmt.Printf("cycle %d: q=%d MISMATCH\n", cyc, v)
			break
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	fmt.Printf("simulated 64 cycles: counter correct = %v\n", ok)
	return nil
}

// runB11 scales routing across the §2 array range, 16x24 to 64x96.
func runB11(cfg config) error {
	t := newTable("device", "array", "build ms", "median route ns", "routed", "frames")
	for _, size := range arch.VirtexSizes() {
		start := time.Now()
		d, err := device.New(arch.NewVirtex(), size.Rows, size.Cols)
		if err != nil {
			return err
		}
		build := time.Since(start)
		r := core.New(d)
		gen := workload.ForDevice(cfg.seed, d)
		var ns []float64
		routed, total := 0, 0
		for i := 0; i < 60; i++ {
			src, sink, err := gen.Pair(10)
			if err != nil {
				return err
			}
			total++
			s := time.Now()
			if err := r.RouteNet(src, sink); err != nil {
				continue
			}
			routed++
			ns = append(ns, float64(time.Since(s).Nanoseconds()))
		}
		t.add(size.Name, fmt.Sprintf("%dx%d", size.Rows, size.Cols),
			fmt.Sprintf("%.1f", float64(build.Microseconds())/1000),
			fmt.Sprintf("%.0f", median(ns)),
			fmt.Sprintf("%d/%d", routed, total), d.FrameCount())
	}
	t.print()
	fmt.Println("shape: route time is distance- not array-bound (no stored routing graph).")
	return nil
}
