package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// runB3 measures fanout routing: route(src, sinks[]) against routing each
// sink individually without reuse. The paper: "This call should be used
// instead of connecting each sink individually, since it minimizes the
// routing resources used."
func runB3(cfg config) error {
	t := newTable("fanout k", "shared wires", "individual wires", "saving%", "shared ns", "individual ns")
	for _, k := range []int{2, 4, 8, 12, 16} {
		var sharedWires, indivWires, sharedNs, indivNs []float64
		gen := workload.New(cfg.seed, cfg.rows, cfg.cols)
		for trial := 0; trial < 15; trial++ {
			src, sinks, err := gen.Fanout(k, 6)
			if err != nil {
				return err
			}
			// Shared: one RouteFanout call.
			rs, err := newRouter(cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			if err := rs.RouteFanout(src, sinks); err != nil {
				continue
			}
			sharedNs = append(sharedNs, float64(time.Since(start).Nanoseconds()))
			net, err := rs.Trace(src)
			if err != nil {
				return err
			}
			sharedWires = append(sharedWires, float64(net.WireCount(rs.Dev)))

			// Individual: each sink routed as its own net on a fresh
			// device (no reuse possible).
			total := 0.0
			var el time.Duration
			ok := true
			for _, sink := range sinks {
				ri, err := newRouter(cfg)
				if err != nil {
					return err
				}
				start := time.Now()
				if err := ri.RouteNet(src, sink); err != nil {
					ok = false
					break
				}
				el += time.Since(start)
				n, err := ri.Trace(src)
				if err != nil {
					return err
				}
				total += float64(n.WireCount(ri.Dev))
			}
			if !ok {
				sharedNs = sharedNs[:len(sharedNs)-1]
				sharedWires = sharedWires[:len(sharedWires)-1]
				continue
			}
			indivWires = append(indivWires, total)
			indivNs = append(indivNs, float64(el.Nanoseconds()))
		}
		sw, iw := mean(sharedWires), mean(indivWires)
		saving := 0.0
		if iw > 0 {
			saving = 100 * (iw - sw) / iw
		}
		t.add(k, fmt.Sprintf("%.1f", sw), fmt.Sprintf("%.1f", iw),
			fmt.Sprintf("%.0f", saving),
			fmt.Sprintf("%.0f", mean(sharedNs)), fmt.Sprintf("%.0f", mean(indivNs)))
	}
	t.print()
	fmt.Println("shape: sharing saves wires, with the saving growing with fanout.")
	return nil
}

// runB4 measures bus routing across widths and spans — the dataflow
// stage-to-stage connection of §3.1.
func runB4(cfg config) error {
	t := newTable("width", "span", "routed", "PIPs", "ns/bit")
	for _, width := range []int{4, 8, 16} {
		for _, span := range []int{4, 10, 18} {
			gen := workload.New(cfg.seed, cfg.rows, cfg.cols)
			routed, total := 0, 0
			var pips, ns []float64
			for trial := 0; trial < 10; trial++ {
				srcs, dsts, err := gen.Bus(width, span)
				if err != nil {
					return err
				}
				r, err := newRouter(cfg)
				if err != nil {
					return err
				}
				total++
				start := time.Now()
				if err := r.RouteBus(srcs, dsts); err != nil {
					continue
				}
				routed++
				ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(width))
				pips = append(pips, float64(r.Dev.OnPIPCount()))
			}
			t.add(width, span, fmt.Sprintf("%d/%d", routed, total),
				fmt.Sprintf("%.0f", mean(pips)), fmt.Sprintf("%.0f", mean(ns)))
		}
	}
	t.print()
	return nil
}

// runB7 exercises trace and reverse trace on fanout nets: the full net
// comes back from trace, exactly one branch from reverse trace (§3.5).
func runB7(cfg config) error {
	gen := workload.New(cfg.seed, cfg.rows, cfg.cols)
	t := newTable("fanout k", "net PIPs", "branch PIPs (mean)", "trace ns", "rev-trace ns")
	for _, k := range []int{2, 4, 8} {
		var netPips, branchPips, traceNs, revNs []float64
		for trial := 0; trial < 10; trial++ {
			src, sinks, err := gen.Fanout(k, 6)
			if err != nil {
				return err
			}
			r, err := newRouter(cfg)
			if err != nil {
				return err
			}
			if err := r.RouteFanout(src, sinks); err != nil {
				continue
			}
			start := time.Now()
			net, err := r.Trace(src)
			if err != nil {
				return err
			}
			traceNs = append(traceNs, float64(time.Since(start).Nanoseconds()))
			netPips = append(netPips, float64(len(net.PIPs)))
			if len(net.Sinks) != k {
				return fmt.Errorf("trace found %d sinks, want %d", len(net.Sinks), k)
			}
			for _, s := range net.Sinks {
				start := time.Now()
				br, err := r.ReverseTrace(s)
				if err != nil {
					return err
				}
				revNs = append(revNs, float64(time.Since(start).Nanoseconds()))
				branchPips = append(branchPips, float64(len(br.PIPs)))
				if br.Source != net.Source {
					return fmt.Errorf("branch source %v != net source %v", br.Source, net.Source)
				}
			}
		}
		t.add(k, fmt.Sprintf("%.1f", mean(netPips)), fmt.Sprintf("%.1f", mean(branchPips)),
			fmt.Sprintf("%.0f", mean(traceNs)), fmt.Sprintf("%.0f", mean(revNs)))
	}
	t.print()
	fmt.Println("shape: a branch is a strict subset of the net; both traces agree on the source.")
	return nil
}
