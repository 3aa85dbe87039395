package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"time"
)

// The array every workload runs on: a 64x96 Virtex.
const (
	devRows = 64
	devCols = 96
)

// Repetition schedule of the default pass. A repetition is one run of a
// workload's fixed script, so its work counts repeat exactly; the pass keeps
// adding repetitions until it has measured for -seconds, never fewer than
// minReps, never with fewer than minSamples op latencies pooled (so that
// ten samples lie beyond the p99), and never more than maxReps.
const (
	setupRuns  = 3 // set-ups per run; setup_s is put together from their fastest pieces
	minReps    = 7
	maxReps    = 60
	minSamples = 1100
	tracedReps = 2
)

// schedule sizes a default pass. The smoke test shrinks all of it.
type schedule struct {
	seconds float64 // measure at least this long
	scale   float64 // script length relative to the full scripts
	setups  int
	minReps int
}

func fullSchedule(seconds float64) schedule {
	return schedule{seconds: seconds, scale: 1, setups: setupRuns, minReps: minReps}
}

// counts are one repetition's exact tallies (ops, routed sinks, committed
// PIPs, dirty frames, nodes explored, ...). The script is fixed, so every
// measured repetition must produce the same map.
type counts map[string]int

// repStats is what one repetition produced.
type repStats struct {
	wall    time.Duration
	lat     []float64 // per-op latency in µs, script order, one stream after the other
	streams int       // closed-loop callers that ran concurrently, each with an equal share of lat; 0 means 1
	n       counts
}

// runner is one of the four workloads: its script together with the system it drives.
type runner interface {
	// setup builds the system under test and generates the script.
	setup() error
	// ops is the script length: op count of one repetition.
	ops() int
	// reset returns the system to the script's start state (untimed).
	reset() error
	// rep runs the script once, appending per-op latencies to lat. rec is
	// nil in the default pass; with a recorder the repetition also makes
	// the shadow calls that feed the per-layer metrics. The workloads are
	// chosen so that no op fails; the first one that does ends the run.
	rep(rec *recorder, lat []float64) (*repStats, error)
	// verify is the correctness gate on the state the last rep left.
	verify() error
	// layers turns traced repetitions into per-layer metrics, running
	// whatever extra probes the workload's layers need.
	layers(rec *recorder, reps []*repStats) (map[string]float64, error)
	close()
}

type workloadSpec struct {
	name string
	make func(seed int64, scale float64) runner
}

var workloads = []workloadSpec{
	{"p2p_cold", func(seed int64, scale float64) runner { return newP2P(seed, scale) }},
	{"batch_reload", func(seed int64, scale float64) runner { return newBatch(seed, scale) }},
	{"core_swap", func(seed int64, scale float64) runner { return newSwap(seed, scale) }},
	{"gateway_churn", func(seed int64, scale float64) runner { return newGatewayChurn(seed, scale) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// warmStart sets a workload up and runs the warm-up repetition, which it
// returns: the first repetition on a fresh system fills per-geometry caches
// and pools and costs a multiple of a warm one, so it is charged to set-up.
func warmStart(spec workloadSpec, seed int64, scale float64) (runner, *repStats, error) {
	w := spec.make(seed, scale)
	if err := w.setup(); err != nil {
		w.close()
		return nil, nil, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	warm, err := oneRep(w, nil)
	if err != nil {
		w.close()
		return nil, nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
	}
	return w, warm, nil
}

// oneRep resets the workload and runs one repetition.
func oneRep(w runner, rec *recorder) (*repStats, error) {
	if err := w.reset(); err != nil {
		return nil, fmt.Errorf("reset: %w", err)
	}
	st, err := w.rep(rec, make([]float64, 0, w.ops()))
	if err != nil {
		return nil, err
	}
	if len(st.lat) != w.ops() {
		return nil, fmt.Errorf("repetition ran %d ops, script has %d", len(st.lat), w.ops())
	}
	return st, nil
}

// passResult is one workload's default pass.
type passResult struct {
	name      string
	metrics   map[string]float64
	attempted int
	reps      int
	samples   int // per-op latencies pooled into op_p99_us
}

// runDefault is the untraced pass: set-up (several times, median reported),
// then repetitions of the fixed script until -seconds have been measured,
// then the determinism check and the correctness gate.
func runDefault(spec workloadSpec, seed int64, sched schedule) (*passResult, error) {
	var w runner
	var builds []float64 // seconds a set-up took before its warm-up repetition
	var warms []*repStats
	for i := 0; i < sched.setups; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var warm *repStats
		var err error
		if w, warm, err = warmStart(spec, seed, sched.scale); err != nil {
			return nil, err
		}
		builds = append(builds, (time.Since(t0) - warm.wall).Seconds())
		warms = append(warms, warm)
	}
	defer w.close()
	// The systems of the earlier set-ups are closed but not yet gone: pooled
	// buffers and finalizers take a second collection, and the first
	// repetition boundary would otherwise read 100 MB of them as live heap.
	runtime.GC()

	var reps []*repStats
	var mallocs, heapPeak uint64
	var ms runtime.MemStats
	var measured time.Duration
	enough := func() bool {
		return len(reps) >= sched.minReps && measured.Seconds() >= sched.seconds &&
			float64(len(reps)*w.ops()) >= minSamples*sched.scale
	}
	for len(reps) < maxReps && !enough() {
		if err := w.reset(); err != nil {
			return nil, fmt.Errorf("%s: reset: %w", spec.name, err)
		}
		lat := make([]float64, 0, w.ops())
		// Collect between repetitions so a cycle owed to the previous
		// repetition's garbage does not land inside this one. What is
		// still allocated straight after is the live heap; HeapSys, by
		// contrast, swings by 40% between runs with collector timing.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if ms.HeapAlloc > heapPeak {
			heapPeak = ms.HeapAlloc
		}
		st, err := w.rep(nil, lat)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", spec.name, len(reps), err)
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		reps = append(reps, st)
		measured += st.wall
	}
	res := &passResult{name: spec.name, reps: len(reps)}
	for i, st := range reps {
		res.attempted += len(st.lat)
		if !reflect.DeepEqual(st.n, reps[0].n) {
			return nil, fmt.Errorf("%s: determinism: rep %d counted %v, rep 0 counted %v",
				spec.name, i, st.n, reps[0].n)
		}
	}
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", spec.name, err)
	}

	var rate float64
	for _, t := range quietTimes(reps) {
		rate += float64(len(reps[0].lat)/max(reps[0].streams, 1)) / t
	}
	var pooled []float64
	for _, st := range reps {
		pooled = append(pooled, st.lat...)
	}
	n := reps[0].n
	ops := float64(n["ops"])
	res.samples = len(pooled)
	res.metrics = map[string]float64{
		// A set-up is one shot, and a burst on the host lasts as long as one:
		// the median of three moved by a quarter from a calm hour to a busy
		// one. So set-up too is put together from its fastest pieces, the
		// build and the warm-up script; the streams of a script run side by
		// side, so the slowest is its time.
		"setup_s":       slices.Min(builds) + slices.Max(quietTimes(warms)),
		"ops_per_s":     rate,
		"op_p50_us":     quietP50(reps),
		"op_p99_us":     quantile(pooled, 0.99),
		"pips_per_sink": ratio(float64(n["pips"]), float64(n["sinks"])),
		"frames_per_op": ratio(float64(n["frames"]), ops),
		"allocs_per_op": float64(mallocs) / float64(res.attempted),
		"heap_peak_mb":  float64(heapPeak) / (1 << 20),
	}
	return res, nil
}

// scriptChunks is how many pieces quietTimes cuts a stream's script into:
// 10 to 50 ms each on the four workloads, long enough to keep what an op
// costs its neighbours (allocation, cache) and short enough that some
// repetition ran each piece undisturbed.
const scriptChunks = 64

// quietTimes combines the repetitions of one fixed script into what the
// script costs when nothing else runs on the machine: the seconds each of its
// concurrent streams takes. Position i of the script does the same work in
// every repetition and the shared host only ever adds time, in bursts of a
// second or several, so the fastest run of a piece of the script across the
// repetitions is the best estimate of that piece, and a stream's time is the
// sum of its pieces' fastest times.
func quietTimes(reps []*repStats) []float64 {
	streams := max(reps[0].streams, 1)
	per := len(reps[0].lat) / streams
	chunk := (per + scriptChunks - 1) / scriptChunks
	times := make([]float64, streams)
	for s := range times {
		var total float64 // µs
		for lo := s * per; lo < (s+1)*per; lo += chunk {
			hi := min(lo+chunk, (s+1)*per)
			best := math.Inf(1)
			for _, st := range reps {
				var sum float64
				for _, v := range st.lat[lo:hi] {
					sum += v
				}
				best = min(best, sum)
			}
			total += best
		}
		times[s] = total / 1e6
	}
	return times
}

// quietP50 is the median, over script positions, of the fastest latency any
// repetition saw at each position.
func quietP50(reps []*repStats) float64 {
	fastest := slices.Clone(reps[0].lat)
	for _, st := range reps[1:] {
		for i, v := range st.lat {
			fastest[i] = min(fastest[i], v)
		}
	}
	return median(fastest)
}

// runTraced is the separate traced pass of one workload: tracedReps
// repetitions with a recorder, the correctness gate, then the workload's
// per-layer metrics.
func runTraced(spec workloadSpec, seed int64, scale float64, rec *recorder) (map[string]float64, *passResult, error) {
	w, _, err := warmStart(spec, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	res := &passResult{name: spec.name, reps: tracedReps}
	var reps []*repStats
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		st, err := oneRep(w, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: traced rep %d: %w", spec.name, i, err)
		}
		if len(reps) > 0 && !reflect.DeepEqual(st.n, reps[0].n) {
			return nil, nil, fmt.Errorf("%s: determinism: traced rep %d counted %v, rep 0 counted %v",
				spec.name, i, st.n, reps[0].n)
		}
		reps = append(reps, st)
		res.attempted += len(st.lat)
	}
	if err := w.verify(); err != nil {
		return nil, nil, fmt.Errorf("%s: correctness gate: %w", spec.name, err)
	}
	m, err := w.layers(rec, reps)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: layer probes: %w", spec.name, err)
	}
	return m, res, nil
}
