package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/timing"
)

// runB15 exercises the implemented §6 IOB extension: pad-to-pin, pin-to-pad
// and pad-to-pad auto-routing around the array boundary, with success rates
// and estimated pad-to-pad delays across the chip.
func runB15(cfg config) error {
	model := timing.Default()
	t := newTable("pattern", "routed", "median ns", "mean delay (ns)")
	type pat struct {
		name string
		gen  func(i int) (core.Pin, core.Pin)
	}
	last := func(n int) int { return n - 1 }
	pats := []pat{
		{"west pad -> CLB pin", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(1+i%(cfg.rows-2), 0, arch.IOBIn(i%arch.NumIOBIn)),
				core.NewPin(1+(i*3)%(cfg.rows-2), cfg.cols/2, arch.Input(i%arch.NumInputs))
		}},
		{"CLB pin -> east pad", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(1+i%(cfg.rows-2), cfg.cols/2, arch.OutPin(i%arch.NumOutPins)),
				core.NewPin(1+(i*5)%(cfg.rows-2), last(cfg.cols), arch.IOBOut(i%arch.NumIOBOut))
		}},
		{"west pad -> east pad", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(1+i%(cfg.rows-2), 0, arch.IOBIn(i%arch.NumIOBIn)),
				core.NewPin(1+(i*7)%(cfg.rows-2), last(cfg.cols), arch.IOBOut(i%arch.NumIOBOut))
		}},
		{"south pad -> north pad", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(0, 1+i%(cfg.cols-2), arch.IOBIn(i%arch.NumIOBIn)),
				core.NewPin(last(cfg.rows), 1+(i*3)%(cfg.cols-2), arch.IOBOut(i%arch.NumIOBOut))
		}},
	}
	// Block-RAM patterns: pads and pins into a RAM column and back.
	bramCol := 6 // first Virtex-class BRAM column
	pats = append(pats,
		pat{"CLB pin -> BRAM addr", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(1+i%(cfg.rows-2), 2, arch.OutPin(i%arch.NumOutPins)),
				core.NewPin(1+(i*3)%(cfg.rows-2), bramCol, arch.BRAMAddr(i%arch.NumBRAMAddr))
		}},
		pat{"BRAM dout -> CLB pin", func(i int) (core.Pin, core.Pin) {
			return core.NewPin(1+i%(cfg.rows-2), bramCol, arch.BRAMDout(i%arch.NumBRAMDout)),
				core.NewPin(1+(i*5)%(cfg.rows-2), cfg.cols-3, arch.Input(i%arch.NumInputs))
		}},
	)
	for _, p := range pats {
		routed, total := 0, 0
		var ns, delays []float64
		for i := 0; i < 20; i++ {
			src, sink := p.gen(i)
			r, err := newRouter(cfg)
			if err != nil {
				return err
			}
			total++
			start := time.Now()
			if err := r.RouteNet(src, sink); err != nil {
				continue
			}
			routed++
			ns = append(ns, float64(time.Since(start).Nanoseconds()))
			if d, err := model.SinkDelay(r.Dev, sink); err == nil {
				delays = append(delays, d)
			}
		}
		t.add(p.name, fmt.Sprintf("%d/%d", routed, total),
			fmt.Sprintf("%.0f", median(ns)), fmt.Sprintf("%.1f", mean(delays)))
	}
	t.print()
	fmt.Println("the paper lists IOBs and Block RAM as future work (§6); both are implemented:")
	fmt.Println("boundary pads and RAM-column pins routed by the unchanged automatic calls.")
	return nil
}
