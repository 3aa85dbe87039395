package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/server"
	v3 "repro/internal/server/protocol/v3"
)

// modeledPortUsPerFrame is the configuration-port service time per frame the
// old fleet benchmarks slept (BENCH_4's PortFrameTime). Here it is only ever
// multiplied, never slept.
const modeledPortUsPerFrame = 1200

// depthRun is the churn script driven at one depth of the stack.
type depthRun struct {
	s    *stack
	lat  []float64 // per-op latency pooled over every slice run
	n    counts    // counts summed over every slice run
	wall time.Duration
	busy float64 // µs the depth's workers spent executing ops (dWorker only)
}

func (r *depthRun) mean() float64 { return mean(r.lat) }

// The onion drives every depth for the same number of cycles, in slices of
// sliceCycles taken round-robin across the depths: wall time on a shared
// machine drifts by a tenth within a minute, and self times are differences
// of means, so every depth has to meet the same drift.
const sliceCycles = 2

// workerBusyUs sums, over the stack's standalone workers, the time their
// goroutines spent executing ops, as the workers' own statsz reports it.
func (s *stack) workerBusyUs() float64 {
	var us float64
	for _, w := range s.workers {
		for _, op := range w.StatsSnapshot().Ops {
			us += op.Meanus * float64(op.Count)
		}
	}
	return us
}

// capture runs one more cycle per session at dWorker and returns every
// request with the response the worker gave it: the real messages the
// codec and mirror-apply probes work on.
func (s *stack) capture(sets [][]gwNet) ([]exchange, error) {
	var kept []exchange
	for i, t := range s.targets {
		st := t.(*submitTarget)
		st.keep = &kept
		_, _, err := drive(st, sets[i], 1, nil, allCycles, "", 0, nil, nil)
		st.keep = nil
		if err != nil {
			return nil, err
		}
	}
	return kept, nil
}

// layers is the onion. The churn script is driven at six depths — bare
// Router, Worker.Submit, Coordinator.Submit, client -> fleet-backed server,
// Gateway.Submit, client -> gateway — and each tier's self time is the
// difference of adjacent means, so the tiers sum to the outermost depth by
// construction. The outermost depth is the workload's own stack, recorded on
// every other cycle: its recorded cycles are the traced outermost mean, its
// unrecorded ones the untraced end-to-end mean, and the gap between the two
// is the tracing overhead.
func (w *gatewayChurn) layers(rec *recorder, reps []*repStats) (map[string]float64, error) {
	order := []depth{dRouter, dWorker, dStatic, dFleet, dFleetTCP, dGateway, dEdge}
	runs := map[depth]*depthRun{dEdge: {s: w.main}}
	for _, d := range order[:len(order)-1] {
		s, err := buildStack(d)
		if err != nil {
			return nil, fmt.Errorf("depth %s: %w", spanNames[d], err)
		}
		defer s.close()
		// One untimed cycle: the first routes search, every later one replays.
		if _, err := s.run(w.sets, 1, nil, allCycles); err != nil {
			return nil, fmt.Errorf("depth %s: warm-up: %w", spanNames[d], err)
		}
		runs[d] = &depthRun{s: s}
	}
	// Half-length scripts in total: per-op means do not depend on the
	// length of a warm run, and seven depths have to fit one traced pass.
	rounds := (tracedReps*w.cycles/2 + sliceCycles - 1) / sliceCycles
	rounds += rounds % 2 // recorded and unrecorded cycles lead equally often
	var traced, untraced []float64
	for round := 0; round < rounds; round++ {
		for _, d := range order {
			r := runs[d]
			parity := allCycles
			if d == dEdge {
				// The first cycle of a slice runs on caches another depth
				// just emptied; recorded and unrecorded cycles take turns
				// at being that one.
				parity = round % 2
			}
			busy := r.s.workerBusyUs()
			st, err := r.s.run(w.sets, sliceCycles, rec, parity)
			if err != nil {
				return nil, fmt.Errorf("depth %s: %w", spanNames[d], err)
			}
			if d == dEdge {
				t, u := splitByTracing(st.lat, sliceCycles, parity)
				traced, untraced = append(traced, t...), append(untraced, u...)
			}
			r.lat = append(r.lat, st.lat...)
			r.wall += st.wall
			r.busy += r.s.workerBusyUs() - busy
			if r.n == nil {
				r.n = counts{}
			}
			for k, v := range st.n {
				r.n[k] += v
			}
		}
	}
	core, worker, static := runs[dRouter], runs[dWorker], runs[dStatic]
	fl, flTCP, gw := runs[dFleet], runs[dFleetTCP], runs[dGateway]

	m := map[string]float64{}
	m["core.self_us_per_op"] = core.mean()
	hits, fails := float64(core.n["cache_hits"]), float64(core.n["replay_fails"])
	m["core.cache_hit_ratio"] = ratio(hits, hits+float64(core.n["cache_misses"]))
	m["core.replay_fail_ratio"] = ratio(fails, hits+fails)

	m["server.submit_us_p50"] = quantile(worker.lat, 0.5)
	m["server.submit_us_p99"] = quantile(worker.lat, 0.99)
	m["server.self_us_per_op"] = worker.mean() - core.mean()
	m["server.busy_ratio"] = worker.busy / (float64(worker.wall.Microseconds()) * gwSessions)

	m["client.static_rtt_us_p50"] = quantile(static.lat, 0.5)
	m["client.self_us_per_op"] = static.mean() - worker.mean()

	m["fleet.submit_us_p50"] = quantile(fl.lat, 0.5)
	m["fleet.self_us_per_op"] = fl.mean() - worker.mean()
	m["fleet.backend_hop_us_per_op"] = flTCP.mean() - fl.mean()

	tracedMean, e2eMean := mean(traced), mean(untraced)
	m["gateway.submit_us_p50"] = quantile(gw.lat, 0.5)
	m["gateway.self_us_per_op"] = gw.mean() - flTCP.mean()
	m["gateway.edge_hop_us_per_op"] = tracedMean - gw.mean()

	m["trace.overhead_ratio"] = tracedMean/e2eMean - 1
	selfSum := m["core.self_us_per_op"] + m["server.self_us_per_op"] + m["fleet.self_us_per_op"] +
		m["fleet.backend_hop_us_per_op"] + m["gateway.self_us_per_op"] + m["gateway.edge_hop_us_per_op"]
	m["trace.unaccounted_ratio"] = math.Abs(e2eMean-selfSum) / e2eMean

	// Counts of the service path come from the workload's own repetitions.
	var all []float64
	for _, st := range reps {
		all = append(all, st.lat...)
	}
	e2e := reps[0].n
	ops := float64(e2e["ops"])
	m["client.op_p99_us"] = quantile(all, 0.99)
	m["client.wire_bytes_per_op"] = ratio(float64(e2e["wire_bytes"]), ops)
	pushed := ratio(float64(e2e["hw_frames"]), ops)
	m["fleet.frames_pushed_per_op"] = pushed
	m["fleet.modeled_port_us_per_op"] = pushed * modeledPortUsPerFrame
	life := w.main.tally()
	m["fleet.failovers"] = float64(life["failovers"])
	m["gateway.rejected_ratio"] = ratio(float64(life["rejected"]), float64(life["rejected"]+life["admitted"]))

	if err := w.routerProbe(core.s, core.n, m, rec); err != nil {
		return nil, err
	}
	kept, err := worker.s.capture(w.sets)
	if err != nil {
		return nil, err
	}
	return m, codecLayers(m, kept)
}

// routerProbe gives the generic device/bitstream/jbits/oracle metrics for
// the churn script from the bare-Router depth, with session 0's working set
// routed so there is a configuration to replay, serialize and audit. n is
// what the depth counted over every op its recorder holds.
func (w *gatewayChurn) routerProbe(s *stack, n counts, m map[string]float64, rec *recorder) error {
	for i := range w.sets[0] {
		if err := s.targets[0].route(&w.sets[0][i]); err != nil {
			return err
		}
	}
	return genericLayers(m, rec, s.routers[0], n, w.audit)
}

// codecLayers times the v3 codec on the script's real requests and
// responses and applies the responses' frames to a fresh mirror.
func codecLayers(m map[string]float64, kept []exchange) error {
	if len(kept) == 0 {
		return fmt.Errorf("no exchanges captured for the codec probes")
	}
	const rounds = 20
	type wire struct {
		op        byte
		req, resp []byte // full frames: header + payload
	}
	var ws []wire
	var reqBytes, respBytes int
	for _, x := range kept {
		op, ok := v3.OpByte(x.req.Op)
		if !ok {
			return fmt.Errorf("no v3 op byte for %q", x.req.Op)
		}
		req, err := v3.AppendRequest(nil, x.req)
		if err != nil {
			return err
		}
		head, raw, err := v3.AppendResponse(nil, op, x.resp)
		if err != nil {
			return err
		}
		resp := append(append([]byte(nil), head...), raw...)
		ws = append(ws, wire{op, req, resp})
		reqBytes += len(req)
		respBytes += len(resp)
	}
	calls := float64(rounds * len(kept))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	var buf []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, x := range kept {
			var err error
			if buf, err = v3.AppendRequest(buf[:0], x.req); err != nil {
				return err
			}
		}
	}
	encReq := time.Since(t0)

	in := v3.NewInterner()
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range ws {
			h, err := v3.ParseHeader(ws[i].req[:v3.HeaderSize])
			if err != nil {
				return err
			}
			var req server.Request
			if err := v3.DecodeRequest(h, ws[i].req[v3.HeaderSize:], &req, in); err != nil {
				return err
			}
		}
	}
	decReq := time.Since(t0)

	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, x := range kept {
			var err error
			if buf, _, err = v3.AppendResponse(buf[:0], ws[i].op, x.resp); err != nil {
				return err
			}
		}
	}
	encResp := time.Since(t0)

	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range ws {
			h, err := v3.ParseHeader(ws[i].resp[:v3.HeaderSize])
			if err != nil {
				return err
			}
			var resp server.Response
			if err := v3.DecodeResponse(h, ws[i].resp[v3.HeaderSize:], &resp); err != nil {
				return err
			}
		}
	}
	decResp := time.Since(t0)

	runtime.ReadMemStats(&ms)
	m["v3.encode_req_ns"] = float64(encReq.Nanoseconds()) / calls
	m["v3.decode_req_ns"] = float64(decReq.Nanoseconds()) / calls
	m["v3.encode_resp_ns"] = float64(encResp.Nanoseconds()) / calls
	m["v3.decode_resp_ns"] = float64(decResp.Nanoseconds()) / calls
	m["v3.req_bytes"] = float64(reqBytes) / float64(len(kept))
	m["v3.resp_bytes"] = float64(respBytes) / float64(len(kept))
	m["v3.codec_allocs_per_op"] = float64(ms.Mallocs-mallocs) / calls

	// The mirror side of a response: its frames patched into the client's
	// image. The captured cycle starts and ends on an empty device, so the
	// frames apply in order to a blank mirror, round after round.
	mirror, err := device.New(arch.NewVirtex(), devRows, devCols)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, x := range kept {
			if len(x.resp.Frames) == 0 {
				continue
			}
			if _, err := mirror.ApplyFramesRaw(x.resp.Frames); err != nil {
				return fmt.Errorf("applying captured frames: %w", err)
			}
		}
	}
	m["client.mirror_apply_us_per_op"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / calls
	return nil
}
