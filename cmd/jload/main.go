// jload is the load generator for jrouted: it replays synthetic routing
// workloads against a live daemon (or an in-process one it boots itself)
// through N concurrent client sessions and reports service throughput,
// client-observed p50/p99 latency, and how many partial-reconfiguration
// frames the daemon shipped to keep the client mirrors in sync.
//
// Usage:
//
//	jload -inproc -json out.json          # self-contained run, results as JSON
//	jload -addr 127.0.0.1:7411 -sessions 4
//	jload -inproc -fleet -boards 4        # drive a fleet-sharded daemon
//	jload -inproc -gateway -backends 2    # drive fleets behind a gateway
//	jload -inproc -sessions 4 -soak 2m    # fault-injection soak (make soak)
//	jload -noc-smoke                      # NoC obstacle-churn check (make noc-smoke)
//
// It reports what a run did, not how fast the system is: timing claims go
// through `go run ./benchmark` (see BENCHMARK.json).
//
// Against a remote daemon the devices must be named dev0..devN-1 and sized
// to -rows x -cols (the in-process mode sets this up itself). With -fleet
// the in-process daemon runs in fleet mode instead: -boards shards behind
// the coordinator, sessions pinned round-robin by placement key; -boards
// must be >= -sessions so the generic workloads get a board each.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/workload"
)

// result is one workload's aggregate measurement — a -json entry.
type result struct {
	Name          string  `json:"name"`
	Sessions      int     `json:"sessions"`
	Ops           int     `json:"ops"`
	Errors        int     `json:"errors"`
	WallSeconds   float64 `json:"wall_seconds"`
	OpsPerSecond  float64 `json:"ops_per_second"`
	P50us         float64 `json:"p50_us"`
	P99us         float64 `json:"p99_us"`
	MeanUs        float64 `json:"mean_us"`
	FramesShipped int     `json:"frames_shipped"`
	BytesShipped  int     `json:"bytes_shipped"`
	// Partition-parallel batch negotiation counters, summed across the
	// run's sessions: regions created, nets crossing a cut, and the
	// region-local vs whole-device iteration split.
	PartitionRegions  int `json:"partition_regions,omitempty"`
	PartitionCrossing int `json:"partition_crossing_nets,omitempty"`
	RegionIterations  int `json:"region_iterations,omitempty"`
	GlobalIterations  int `json:"global_iterations,omitempty"`
	// Persistent template-library counters, summed across the run's
	// sessions: replays served from the loaded library and entries
	// seeded at router construction.
	LibraryHits   int `json:"library_hits,omitempty"`
	LibrarySeeded int `json:"library_seeded,omitempty"`
	// WireBytesPerOp is payload bytes moved on the wire per op (both
	// directions, from the daemon's wire counters); AllocsPerOp is the
	// process-wide heap-allocation count per op during the run (client
	// and, for -inproc, server included).
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
	AllocsPerOp    float64 `json:"allocs_per_op,omitempty"`
}

// sessionRun holds one worker's client-side measurements.
type sessionRun struct {
	lat  []time.Duration
	errs int
}

func (r *sessionRun) observe(start time.Time, err error) {
	r.lat = append(r.lat, time.Since(start))
	if err != nil {
		r.errs++
	}
}

func main() {
	addr := flag.String("addr", "", "address of a running jrouted (empty with -inproc)")
	inproc := flag.Bool("inproc", false, "boot an in-process daemon instead of dialing")
	sessions := flag.Int("sessions", 2, "concurrent client sessions (one device each)")
	rows := flag.Int("rows", 16, "device rows")
	cols := flag.Int("cols", 24, "device cols")
	seed := flag.Int64("seed", 1, "workload seed")
	rounds := flag.Int("rounds", 12, "crossbar batch rounds per session")
	steps := flag.Int("steps", 200, "RTR churn steps per session")
	jsonPath := flag.String("json", "", "write results to this JSON file")
	fleetMode := flag.Bool("fleet", false, "with -inproc, boot the daemon in fleet mode (-boards shards) and pin sessions by placement key")
	boards := flag.Int("boards", 0, "fleet mode: board shards behind the coordinator (default: -sessions)")
	spares := flag.Int("spares", 0, "fleet mode: hot-spare boards for failover")
	portFrameTime := flag.Duration("port-frame-time", 0, "fleet mode: modeled configuration-port time per shipped frame")
	soakDur := flag.Duration("soak", 0, "run the fault-injection soak for this long instead of the generic workloads")
	gatewayMode := flag.Bool("gateway", false, "with -inproc, front -backends fleet daemons with an in-process gateway tier and drive sessions through it")
	backends := flag.Int("backends", 2, "gateway mode: backend fleet count behind the gateway")
	nocSmoke := flag.Bool("noc-smoke", false, "run the NoC obstacle-churn smoke (the CI gate) and exit")
	token := flag.String("token", "", "bearer token presented in the hello (gateway tenant auth)")
	flag.Parse()

	if *nocSmoke {
		if err := runNoCSmoke(); err != nil {
			log.Fatalf("jload: noc-smoke: %v", err)
		}
		return
	}

	if *inproc == (*addr != "") {
		log.Fatal("jload: need exactly one of -addr or -inproc")
	}
	if *gatewayMode && *fleetMode {
		log.Fatal("jload: -gateway and -fleet are mutually exclusive (the gateway boots fleets itself)")
	}
	if *gatewayMode && *soakDur > 0 {
		log.Fatal("jload: -soak does not support -gateway")
	}
	target := *addr
	var srv *server.Server
	if *inproc && *gatewayMode {
		// One board per session key on every backend, so the generic
		// workloads (which assume exclusive devices) never share fabric.
		h, err := newGwHarness(*backends, *sessions, *rows, *cols, *portFrameTime)
		if err != nil {
			log.Fatalf("jload: gateway: %v", err)
		}
		target = h.addr
		defer h.shutdown()
	} else if *inproc {
		srv = server.NewServer()
		if *fleetMode {
			n := *boards
			if n == 0 {
				n = *sessions
			}
			if n < *sessions {
				log.Fatalf("jload: -fleet needs -boards >= -sessions (%d < %d): generic workloads assume a board per session", n, *sessions)
			}
			coord, err := fleet.New(fleet.Config{
				Boards: n, Spares: *spares, Rows: *rows, Cols: *cols,
				PortFrameTime: *portFrameTime,
			})
			if err != nil {
				log.Fatalf("jload: fleet: %v", err)
			}
			srv.SetFleet(coord)
		} else {
			for i := 0; i < *sessions; i++ {
				if err := srv.AddDevice(fmt.Sprintf("dev%d", i), "virtex", *rows, *cols); err != nil {
					log.Fatalf("jload: %v", err)
				}
			}
		}
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			log.Fatalf("jload: %v", err)
		}
		target = bound
		defer func() {
			if *soakDur > 0 {
				return // the soak owns the shutdown: a clean drain is its final check
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("jload: shutdown: %v", err)
			}
		}()
	}

	if *soakDur > 0 {
		if err := runSoak(target, srv, *sessions, *rows, *cols, *seed, *soakDur); err != nil {
			log.Fatalf("jload: soak: %v", err)
		}
		return
	}

	mode := "static"
	if *fleetMode {
		mode = "fleet"
	}
	if *gatewayMode {
		mode = "gateway"
	}
	var copts []client.Option
	if *token != "" {
		copts = append(copts, client.WithToken(*token))
	}
	var results []result
	for _, wl := range []struct {
		name string
		run  func(s *client.Session, g *workload.Gen, r *sessionRun) error
	}{
		{"crossbar", func(s *client.Session, g *workload.Gen, r *sessionRun) error {
			return runCrossbar(s, g, r, *rounds)
		}},
		{"rtr_churn", func(s *client.Session, g *workload.Gen, r *sessionRun) error {
			return runChurn(s, g, r, *steps)
		}},
	} {
		res, err := runWorkload(target, wl.name, *sessions, *rows, *cols, *seed, mode, copts, wl.run)
		if err != nil {
			log.Fatalf("jload: %s: %v", wl.name, err)
		}
		results = append(results, res)
		fmt.Printf("%-10s %d sessions  %6d ops (%d errors)  %8.0f ops/s  p50 %6.0fµs  p99 %6.0fµs  %5.0f wire B/op  %6.0f allocs/op  %d frames / %d bytes shipped\n",
			res.Name, res.Sessions, res.Ops, res.Errors, res.OpsPerSecond, res.P50us, res.P99us,
			res.WireBytesPerOp, res.AllocsPerOp, res.FramesShipped, res.BytesShipped)
		if res.PartitionRegions > 0 || res.GlobalIterations > 0 {
			fmt.Printf("%-10s partition: %d regions, %d crossing nets, %d region iters, %d global iters\n",
				"", res.PartitionRegions, res.PartitionCrossing, res.RegionIterations, res.GlobalIterations)
		}
	}

	if *gatewayMode {
		if err := printGatewayStats(target, copts); err != nil {
			log.Fatalf("jload: gateway statsz: %v", err)
		}
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			log.Fatalf("jload: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			log.Fatalf("jload: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// runWorkload drives one named workload through n concurrent sessions and
// aggregates their client-side latencies plus the daemon's shipped-frame
// delta (from statsz before and after). The mode selects session naming:
// "static" opens per-device sessions, "fleet" pins logical names to
// distinct boards by explicit placement key, "gateway" does the same but
// under a device-class alias the gateway resolves to a backend fleet. The
// copts carry the bearer token, when one is set.
func runWorkload(addr, name string, n, rows, cols int, seed int64, mode string,
	copts []client.Option, run func(*client.Session, *workload.Gen, *sessionRun) error) (result, error) {
	ctx := context.Background()
	c, err := client.Dial(ctx, addr, copts...)
	if err != nil {
		return result{}, err
	}
	defer c.Close()
	before, err := c.Stats(ctx)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	runs := make([]sessionRun, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One connection per worker: a session is not safe for
			// concurrent use and sharing a conn would serialize the wire.
			cc, err := client.Dial(ctx, addr, copts...)
			if err != nil {
				errs[i] = err
				return
			}
			defer cc.Close()
			var s *client.Session
			switch mode {
			case "fleet":
				s, err = cc.SessionWithKey(ctx, fmt.Sprintf("s%d", i), uint64(i))
			case "gateway":
				s, err = cc.SessionWithKey(ctx, fmt.Sprintf("v1000-class/s%d", i), uint64(i))
			default:
				s, err = cc.Session(ctx, fmt.Sprintf("dev%d", i))
			}
			if err != nil {
				errs[i] = err
				return
			}
			g := workload.New(seed+int64(i), rows, cols)
			errs[i] = run(s, g, &runs[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return result{}, err
		}
	}

	after, err := c.Stats(ctx)
	if err != nil {
		return result{}, err
	}
	res := result{Name: name, Sessions: n, WallSeconds: wall.Seconds()}
	var all []time.Duration
	for i := range runs {
		all = append(all, runs[i].lat...)
		res.Errors += runs[i].errs
	}
	res.Ops = len(all)
	if wall > 0 {
		res.OpsPerSecond = float64(res.Ops) / wall.Seconds()
	}
	res.P50us, res.P99us, res.MeanUs = percentiles(all)
	if res.Ops > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
		if before.Wire != nil && after.Wire != nil {
			moved := (after.Wire.BytesIn - before.Wire.BytesIn) +
				(after.Wire.BytesOut - before.Wire.BytesOut)
			res.WireBytesPerOp = float64(moved) / float64(res.Ops)
		}
	}
	for name, ss := range after.Sessions {
		res.FramesShipped += ss.FramesShipped - before.Sessions[name].FramesShipped
		res.BytesShipped += ss.BytesShipped - before.Sessions[name].BytesShipped
		res.PartitionRegions += ss.PartitionRegions - before.Sessions[name].PartitionRegions
		res.PartitionCrossing += ss.PartitionCrossing - before.Sessions[name].PartitionCrossing
		res.RegionIterations += ss.RegionIterations - before.Sessions[name].RegionIterations
		res.GlobalIterations += ss.GlobalIterations - before.Sessions[name].GlobalIterations
		res.LibraryHits += ss.LibraryHits - before.Sessions[name].LibraryHits
		res.LibrarySeeded += ss.LibrarySeeded
	}
	if after.Fleet != nil {
		// Fleet workers report under the fleet stats tree, not Sessions.
		for slot, bs := range after.Fleet.Slots {
			var prev server.SessionStatsMsg
			if before.Fleet != nil {
				prev = before.Fleet.Slots[slot].Worker
			}
			res.FramesShipped += bs.Worker.FramesShipped - prev.FramesShipped
			res.BytesShipped += bs.Worker.BytesShipped - prev.BytesShipped
			res.PartitionRegions += bs.Worker.PartitionRegions - prev.PartitionRegions
			res.PartitionCrossing += bs.Worker.PartitionCrossing - prev.PartitionCrossing
			res.RegionIterations += bs.Worker.RegionIterations - prev.RegionIterations
			res.GlobalIterations += bs.Worker.GlobalIterations - prev.GlobalIterations
			res.LibraryHits += bs.Worker.LibraryHits - prev.LibraryHits
			res.LibrarySeeded += bs.Worker.LibrarySeeded
		}
	}
	return res, nil
}

// runCrossbar repeatedly batch-routes a permuted crossbar and tears it
// down — the contention stress case, paying wire and codec costs too.
func runCrossbar(s *client.Session, g *workload.Gen, r *sessionRun, rounds int) error {
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		srcs, dsts, err := g.CrossbarPins(8, 10)
		if err != nil {
			return err
		}
		nets := make([]server.NetMsg, len(srcs))
		for i := range srcs {
			nets[i] = server.NetMsg{Source: client.Pin(srcs[i]), Sinks: []server.EndPointMsg{client.Pin(dsts[i])}}
		}
		start := time.Now()
		err = s.RouteBatch(ctx, nets)
		r.observe(start, err)
		if err != nil {
			continue // contention failure: nothing was committed, next round
		}
		for i := range srcs {
			start := time.Now()
			r.observe(start, s.Unroute(ctx, client.Pin(srcs[i])))
		}
	}
	return nil
}

// runChurn replays an RTR churn sequence: interleaved routes and unroutes
// against a device whose configuration lives across the wire.
func runChurn(s *client.Session, g *workload.Gen, r *sessionRun, steps int) error {
	ctx := context.Background()
	ops, err := g.Churn(steps, 6, 0.35)
	if err != nil {
		return err
	}
	failed := map[core.Pin]bool{}
	for _, op := range ops {
		if op.Route {
			start := time.Now()
			err := s.Route(ctx, client.Pin(op.Src), client.Pin(op.Sink))
			r.observe(start, err)
			if err != nil {
				failed[op.Src] = true
			}
			continue
		}
		if failed[op.Src] {
			continue // its route never landed; unrouting it would double-count
		}
		start := time.Now()
		r.observe(start, s.Unroute(ctx, client.Pin(op.Src)))
	}
	return nil
}

// percentiles returns p50, p99 and the mean of the latencies, in µs.
func percentiles(lat []time.Duration) (p50, p99, mean float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Nanoseconds()) / 1e3
	}
	return at(0.50), at(0.99), float64(sum.Nanoseconds()) / 1e3 / float64(len(sorted))
}
