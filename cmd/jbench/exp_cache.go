package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// runB17 measures route memory on one router: an RTR churn working set is
// routed cold (every net pays a full search), then cycled — each re-route
// replays the remembered path with an O(path-length) legality sweep — and
// the cold round is set against the steady ones. Then a demonstration of
// the relocatable template tier — the paper's §3.1 level-3 claim that a
// route on a regular fabric is a relative-offset shape, replayable anywhere
// it fits.
func runB17(cfg config) error {
	const (
		rows, cols = 32, 48
		nets       = 24
		fan        = 3
		radius     = 14
		rounds     = 12
	)
	fresh := func() (*core.Router, error) {
		d, err := device.New(arch.NewVirtex(), rows, cols)
		if err != nil {
			return nil, err
		}
		return core.New(d), nil
	}
	set, err := workload.New(cfg.seed, rows, cols).FanNets(nets, fan, radius)
	if err != nil {
		return err
	}
	routeSet := func(r *core.Router) error {
		for _, n := range set {
			sinks := make([]core.EndPoint, len(n.Sinks))
			for i, p := range n.Sinks {
				sinks[i] = p
			}
			if err := r.RouteFanout(n.Src, sinks); err != nil {
				return err
			}
		}
		return nil
	}
	// The adjacency tables of a geometry are built on first touch and shared
	// by the process: route the set once on a scratch board, so the cold
	// round times searches and not table construction.
	r, err := fresh()
	if err != nil {
		return err
	}
	if err := routeSet(r); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r, err = fresh(); err != nil {
		return err
	}
	var coldMs, steadyMs float64
	var coldStats core.Stats
	for round := 0; round < rounds; round++ {
		start := time.Now()
		if err := routeSet(r); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		elapsed := float64(time.Since(start).Microseconds()) / 1e3
		if round == 0 {
			coldMs, coldStats = elapsed, r.Stats()
		} else {
			steadyMs += elapsed / (rounds - 1)
		}
		if round == rounds-1 {
			// Replayed routes must be legal nets: every sink reverse-
			// traces to its source exactly as after a cold search.
			for _, n := range set {
				for _, sp := range n.Sinks {
					net, err := r.ReverseTrace(sp)
					if err != nil {
						return fmt.Errorf("verify: %w", err)
					}
					if net.Source != n.Src {
						return fmt.Errorf("verify: sink (%d,%d) traces to (%d,%d), want (%d,%d)",
							sp.Row, sp.Col, net.Source.Row, net.Source.Col, n.Src.Row, n.Src.Col)
					}
				}
			}
			break
		}
		for _, n := range set {
			if err := r.Unroute(n.Src); err != nil {
				return err
			}
		}
	}
	steady := r.Stats().Sub(coldStats)

	fmt.Printf("churn working set: %d fanout-%d nets, radius %d, %dx%d array, %d route/unroute rounds on one router\n",
		nets, fan, radius, rows, cols, rounds)
	t := newTable("rounds", "ms per round", "routes", "hits", "misses", "replay fails", "nodes explored")
	t.add("cold (1)", fmt.Sprintf("%.2f", coldMs), coldStats.Routes, coldStats.CacheHits,
		coldStats.CacheMisses, coldStats.ReplayFails, coldStats.NodesExplored)
	t.add(fmt.Sprintf("steady (%d)", rounds-1), fmt.Sprintf("%.2f", steadyMs), steady.Routes, steady.CacheHits,
		steady.CacheMisses, steady.ReplayFails, steady.NodesExplored)
	t.print()
	if steadyMs > 0 {
		fmt.Printf("steady round vs cold round: %.1fx\n", coldMs/steadyMs)
	}

	// Relocatable template tier: route one shape cold, then the same
	// (Δrow, Δcol, wire class) shape at a different absolute position — the
	// second route replays the learned relative path, no search.
	if r, err = fresh(); err != nil {
		return err
	}
	routeShape := func(baseRow, baseCol int) (time.Duration, error) {
		src := core.NewPin(baseRow, baseCol, arch.OutPin(0))
		sink := core.NewPin(baseRow+2, baseCol+9, arch.Input(1))
		start := time.Now()
		err := r.RouteNet(src, sink)
		return time.Since(start), err
	}
	coldT, err := routeShape(4, 4)
	if err != nil {
		return err
	}
	before := r.Stats()
	replayT, err := routeShape(20, 25)
	if err != nil {
		return err
	}
	after := r.Stats()
	fmt.Printf("\nrelocatable template: shape (Δ+2,Δ+9) cold at (4,4): %v; replayed shifted at (20,25): %v (cache hits +%d, nodes explored +%d)\n",
		coldT, replayT, after.CacheHits-before.CacheHits, after.NodesExplored-before.NodesExplored)
	return nil
}
