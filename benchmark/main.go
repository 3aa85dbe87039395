// Command benchmark is the one seeded benchmark of this repository: four
// fixed-script workloads on a 64x96 Virtex array, the end-to-end metrics of
// BENCHMARK.json per workload, and a separate traced pass that times calls
// into each module's public functions from outside to give the per-layer
// budget. See README.md in this directory.
//
//	go run ./benchmark --workload p2p_cold --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any oracle, mirror, lost-ack or
// determinism failure exits non-zero without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const specPath = "BENCHMARK.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four in turn)")
	seed := fs.Int64("seed", 1, "workload generator seed; the program under test never sees it")
	seconds := fs.Float64("seconds", 0, "how long the default pass measures each workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	selfcheck := fs.Bool("selfcheck", false, "run the default pass twice and compare the two within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	// Two load-generating sessions and the daemons they drive share the
	// process; with one CPU the numbers measure the scheduler instead.
	if runtime.NumCPU() < 2 {
		return fail(fmt.Errorf("need at least 2 CPUs, have %d", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)
	fmt.Fprintf(stdout, "env: %s GOMAXPROCS=%d NumCPU=%d commit=%s seed=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), *seed)

	selected := workloads
	if *name != "" {
		s, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workloadSpec{s}
	}
	switch {
	case *selfcheck:
		err = runSelfcheck(stdout, spec, selected, *seed, *seconds)
	case *trace != 0:
		err = tracedRun(stdout, spec, *name, *seed, 1, *traceOut)
	default:
		for _, s := range selected {
			var res *passResult
			if res, err = runDefault(s, *seed, fullSchedule(*seconds)); err != nil {
				break
			}
			if err = printPass(stdout, spec, res); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// knows it (a plain source checkout does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printPass prints one workload's end-to-end metrics by name with their
// units and sample counts, then the result line.
func printPass(w io.Writer, spec *benchSpec, res *passResult) error {
	metrics, err := pick(spec.EndToEnd, res.metrics)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d repetitions of %d ops, closed loop\n", res.name, res.reps, res.attempted/res.reps)
	for _, d := range spec.EndToEnd {
		note := ""
		switch d.Name {
		case "ops_per_s":
			note = fmt.Sprintf("  (each 1/%d of the script at its fastest in %d repetitions)", scriptChunks, res.reps)
		case "op_p50_us":
			note = fmt.Sprintf("  (each op at its fastest in %d repetitions)", res.reps)
		case "setup_s":
			note = fmt.Sprintf("  (fastest build plus the warm-up script at its fastest in %d set-ups)", setupRuns)
		}
		fmt.Fprintf(w, "  %-16s %14.4f %s%s\n", d.Name, metrics[d.Name].Value, d.Unit, note)
	}
	// The pooled p99 does not hold still enough on a shared machine to carry
	// a bound, so it is printed but is no end-to-end metric; the traced pass
	// reports it as core.op_p99_us and client.op_p99_us.
	fmt.Fprintf(w, "  %-16s %14.4f us  (%d samples pooled; not bounded)\n", "op_p99_us", res.metrics["op_p99_us"], res.samples)
	// A failed or refused op ends the run before this line, so a pass that
	// prints has failed none.
	fmt.Fprintf(w, "  %-16s %14.4f ratio  (0 failed of %d attempted)\n", "failed_op_ratio", 0.0, res.attempted)
	return printResult(w, res.attempted, metrics)
}

func printResult(w io.Writer, attempted int, metrics map[string]metricValue) error {
	line, err := json.Marshal(resultLine{Correct: true, Attempted: attempted, Failed: 0, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tracedRun is the traced pass. Each workload's traced repetitions give the
// metrics of the layers only it exercises plus the generic ones (device,
// bitstream, jbits, oracle) for its own script; every traced run executes
// all four so that every per-layer metric is measured, and where several
// workloads give the same generic metric the named workload's is reported.
func tracedRun(w io.Writer, spec *benchSpec, name string, seed int64, scale float64, out string) error {
	order := make([]workloadSpec, 0, len(workloads))
	for _, s := range workloads {
		if s.name != name {
			order = append(order, s)
		}
	}
	if s, ok := findWorkload(name); ok {
		order = append(order, s)
	}
	epoch := time.Now()
	all := newRecorder(epoch)
	layers := map[string]float64{}
	attempted := 0
	for _, s := range order {
		rec := newRecorder(epoch)
		m, res, err := runTraced(s, seed, scale, rec)
		if err != nil {
			return err
		}
		for k, v := range m {
			layers[k] = v
		}
		attempted += res.attempted
		all.merge(rec)
	}
	metrics, err := pick(spec.PerLayer, layers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "traced pass: %d repetitions per workload, generic layers from %s\n",
		tracedReps, order[len(order)-1].name)
	for _, d := range spec.PerLayer {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	if out != "" {
		if err := all.write(out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans to %s\n", len(all.spans), out)
	}
	return printResult(w, attempted, metrics)
}
