package main

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/maze"
	"repro/internal/timing"
)

// runB12 measures clock/control distribution skew: the dedicated global
// nets "distribute high-fanout signals with minimal skew" (§2), while §6
// lists skew minimization on general routing as future work. A high-fanout
// signal is distributed to K spread-out CLBs once over a dedicated global
// net (to the dedicated clock pins) and once over general routing (to BX
// control pins), and the timing model reports the skew of each.
func runB12(cfg config) error {
	model := timing.Default()
	t := newTable("fanout K", "general skew (ns)", "general wires", "dedicated skew (ns)", "dedicated wires")
	for _, k := range []int{4, 8, 16, 32} {
		// Spread sinks deterministically over the array.
		var tiles [][2]int
		for i := 0; i < k; i++ {
			tiles = append(tiles, [2]int{(i * 5) % cfg.rows, (i * 7) % cfg.cols})
		}

		// General routing to BX pins.
		r, err := newRouter(cfg)
		if err != nil {
			return err
		}
		src := core.NewPin(cfg.rows/2, cfg.cols/2, arch.S0X)
		var sinks []core.EndPoint
		for _, tl := range tiles {
			sinks = append(sinks, core.NewPin(tl[0], tl[1], arch.S0BX))
		}
		genSkew, genWires := -1.0, 0
		if err := r.RouteFanout(src, sinks); err == nil {
			net, err := r.Trace(src)
			if err != nil {
				return err
			}
			genWires = net.WireCount(r.Dev)
			genSkew, err = model.Skew(r.Dev, net)
			if err != nil {
				return err
			}
		}

		// Dedicated global net to the clock pins.
		r2, err := newRouter(cfg)
		if err != nil {
			return err
		}
		var clkSinks []core.EndPoint
		for _, tl := range tiles {
			clkSinks = append(clkSinks, core.NewPin(tl[0], tl[1], arch.S0CLK))
		}
		if err := r2.RouteClock(0, clkSinks...); err != nil {
			return err
		}
		lo, hi := -1.0, -1.0
		for _, s := range clkSinks {
			p := s.Pins()[0]
			d, err := model.SinkDelay(r2.Dev, core.NewPin(p.Row, p.Col, p.W))
			if err != nil {
				return err
			}
			if lo < 0 || d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		t.add(k, fmt.Sprintf("%.1f", genSkew), genWires, fmt.Sprintf("%.1f", hi-lo), 0)
	}
	t.print()
	fmt.Println("shape: dedicated global nets have ~zero skew and use no general wires;")
	fmt.Println("general-routing skew grows with fanout spread (§2, §6 future work).")
	return nil
}

// runB13 compares the shipping greedy sequential router with the
// negotiated-congestion batch router (§6 "different algorithms are being
// investigated such as [6]") on crossing buses squeezed through a narrow
// window.
func runB13(cfg config) error {
	t := newTable("width", "greedy ok", "batch ok", "greedy wires", "batch wires", "batch iters")
	for _, width := range []int{8, 12, 16} {
		build := func() ([]core.EndPoint, []core.EndPoint) {
			var srcs, dsts []core.EndPoint
			for i := 0; i < width; i++ {
				srcs = append(srcs, core.NewPin(i%cfg.rows, 6, arch.OutPin(i%arch.NumOutPins)))
				dsts = append(dsts, core.NewPin((i+width/2)%cfg.rows, 8, arch.Input(i%arch.NumInputs)))
			}
			return srcs, dsts
		}
		srcs, dsts := build()

		greedyOK := true
		greedyWires := 0
		rg, err := newRouter(cfg)
		if err != nil {
			return err
		}
		if err := rg.RouteBus(srcs, dsts); err != nil {
			if !errors.Is(err, maze.ErrUnroutable) {
				return err
			}
			greedyOK = false
		} else {
			greedyWires = rg.Dev.OnPIPCount()
		}

		batchOK := true
		batchWires := 0
		rb, err := newRouter(cfg)
		if err != nil {
			return err
		}
		if err := rb.RouteBusBatch(srcs, dsts); err != nil {
			if !errors.Is(err, maze.ErrUnroutable) {
				return err
			}
			batchOK = false
		} else {
			batchWires = rb.Dev.OnPIPCount()
		}
		t.add(width, greedyOK, batchOK, greedyWires, batchWires, "-")
	}
	t.print()
	fmt.Println("shape: negotiation routes every crossing bus the greedy order-dependent")
	fmt.Println("router can, and succeeds on congested patterns by trading wires between nets.")
	return nil
}
