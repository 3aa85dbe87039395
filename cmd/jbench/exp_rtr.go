package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/maze"
	"repro/internal/workload"
)

// runB5 measures the RTR machinery of §3.3: route/unroute churn
// throughput, reverse-unroute branch removal, and the cost of a core swap
// as partial-bitstream frames versus full reconfiguration.
func runB5(cfg config) error {
	// (a) Churn throughput.
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	gen := workload.ForDevice(cfg.seed, r.Dev)
	// 400 ops at distance 6 on the default 16x24 array, growing with it:
	// on 64x96 (make prof) that is 6400 ops at distance 24.
	ops, err := gen.Churn(400*cfg.rows*cfg.cols/(16*24), max(1, 6*cfg.rows/16), 0.45)
	if err != nil {
		return err
	}
	start := time.Now()
	routes, unroutes := 0, 0
	for _, op := range ops {
		if op.Route {
			if err := r.RouteNet(op.Src, op.Sink); err != nil {
				return fmt.Errorf("churn op %d: %w", op.Serial, err)
			}
			routes++
		} else {
			if err := r.Unroute(op.Src); err != nil {
				return fmt.Errorf("churn op %d: %w", op.Serial, err)
			}
			unroutes++
		}
	}
	el := time.Since(start)
	fmt.Printf("churn: %d routes + %d unroutes in %v (%.0f ops/ms); %d PIPs left live\n",
		routes, unroutes, el.Round(time.Microsecond),
		float64(len(ops))/float64(el.Milliseconds()+1), r.Dev.OnPIPCount())

	// (b) Reverse unroute: remove one branch of a fanout net.
	r2, err := newRouter(cfg)
	if err != nil {
		return err
	}
	gen2 := workload.ForDevice(cfg.seed+1, r2.Dev)
	src, sinks, err := gen2.Fanout(8, 6)
	if err != nil {
		return err
	}
	if err := r2.RouteFanout(src, sinks); err != nil {
		return err
	}
	before := r2.Dev.OnPIPCount()
	firstSink := sinks[0].Pins()[0]
	if err := r2.ReverseUnroute(firstSink); err != nil {
		return err
	}
	after := r2.Dev.OnPIPCount()
	net, err := r2.Trace(src)
	if err != nil {
		return err
	}
	fmt.Printf("reverse unroute: freed %d of %d PIPs; %d of 8 sinks remain connected\n",
		before-after, before, len(net.Sinks))

	// (c) Core swap cost: partial vs full bitstream frames.
	a := arch.NewVirtex()
	session, err := jbits.NewSession(a, cfg.rows, cfg.cols)
	if err != nil {
		return err
	}
	router := core.New(session.Dev)
	board, err := jbits.NewBoard("b5", a, cfg.rows, cfg.cols)
	if err != nil {
		return err
	}
	mul, err := cores.NewConstMul("mul", 3, 2)
	if err != nil {
		return err
	}
	mul.Place(4, 10)
	if err := mul.Implement(router); err != nil {
		return err
	}
	reg, err := cores.NewRegister("reg", mul.OutBits())
	if err != nil {
		return err
	}
	reg.Place(4, 16)
	if err := reg.Implement(router); err != nil {
		return err
	}
	if err := router.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
		return err
	}
	full, err := session.SyncFull(board)
	if err != nil {
		return err
	}
	// Swap: unroute ports, remove, new constant, relocate, reconnect.
	for _, p := range mul.Ports("p") {
		if err := router.Unroute(p); err != nil {
			return err
		}
	}
	if err := mul.Remove(router); err != nil {
		return err
	}
	if err := mul.SetConstant(router, 2); err != nil {
		return err
	}
	mul.Place(9, 10)
	if err := mul.Implement(router); err != nil {
		return err
	}
	for _, p := range mul.Ports("p") {
		if err := router.Reconnect(p); err != nil {
			return err
		}
	}
	partial, err := session.SyncPartial(board)
	if err != nil {
		return err
	}
	diffs, err := session.VerifyReadback(board)
	if err != nil {
		return err
	}
	fmt.Printf("core swap: %d partial frames vs %d full frames (%.1f%%); readback diffs %d\n",
		partial, full, 100*float64(partial)/float64(full), diffs)
	return nil
}

// runB6 demonstrates contention protection (§3.4): manual double-drive
// attempts raise ContentionError; the automatic router never contends.
func runB6(cfg config) error {
	r, err := newRouter(cfg)
	if err != nil {
		return err
	}
	a := r.Dev.A
	// Manual adversarial case: drive the same bidirectional single from
	// both ends.
	if err := r.Route(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
		return err
	}
	if err := r.Route(5, 7, arch.Out(1), a.Single(arch.East, 5)); err != nil {
		return err
	}
	if err := r.Route(5, 8, arch.S1Y, arch.Out(5)); err != nil {
		return err
	}
	err = r.Route(5, 8, arch.Out(5), a.Single(arch.West, 5))
	var ce *device.ContentionError
	if !errors.As(err, &ce) {
		return fmt.Errorf("double drive not rejected: %v", err)
	}
	fmt.Printf("manual double drive rejected: %v\n", ce)

	// Automatic invariant: saturate the fabric with random nets; zero
	// contention errors ever, failures are clean ErrUnroutable.
	r2, err := newRouter(cfg)
	if err != nil {
		return err
	}
	gen := workload.ForDevice(cfg.seed, r2.Dev)
	routed, failed := 0, 0
	for i := 0; i < 1000; i++ {
		src, sink, err := gen.Pair(1 + gen.Rng.Intn(8))
		if err != nil {
			return err
		}
		err = r2.RouteNet(src, sink)
		switch {
		case err == nil:
			routed++
		case errors.As(err, &ce):
			return fmt.Errorf("auto router created contention: %w", err)
		case errors.Is(err, maze.ErrUnroutable):
			failed++
		default:
			return fmt.Errorf("unexpected error: %w", err)
		}
	}
	fmt.Printf("auto routing: %d routed, %d clean unroutable failures, 0 contention errors\n",
		routed, failed)
	return nil
}
