// jbench regenerates every experiment in EXPERIMENTS.md. Each experiment id
// (E1, E2, B1..B11) maps to one run function that prints its table; see
// DESIGN.md §4 for the paper anchor of each.
//
// Usage:
//
//	jbench -exp B2            # one experiment
//	jbench -exp all           # everything
//	jbench -exp B11 -seed 7   # reseed the workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

type config struct {
	seed     int64
	rows     int
	cols     int
	paranoid bool // oracle-audit the board after every automatic op
}

type experiment struct {
	id    string
	title string
	run   func(cfg config) error
}

var experiments = []experiment{
	{"E1", "architecture audit (Fig. 1, §2)", runE1},
	{"E2", "four levels of control, §3.1 worked example", runE2},
	{"B1", "cost ordering across control levels (§3.1)", runB1},
	{"B2", "template-first vs maze search space (§3.1)", runB2},
	{"B3", "fanout routing resource sharing (§3.1)", runB3},
	{"B4", "bus routing (§3.1)", runB4},
	{"B5", "RTR: unroute, core swap, partial bitstreams (§3.3)", runB5},
	{"B6", "contention protection (§3.4)", runB6},
	{"B7", "trace and reverse trace (§3.5)", runB7},
	{"B8", "long-line ablation (§6)", runB8},
	{"B9", "portability to a second architecture (§5)", runB9},
	{"B10", "core-based design vs raw JBits (§4)", runB10},
	{"B11", "array-size scaling 16x24 to 64x96 (§2)", runB11},
	{"B12", "clock-distribution skew: dedicated vs general (§2, §6)", runB12},
	{"B13", "negotiated batch routing vs greedy (§6, [6])", runB13},
	{"B14", "timing-driven routing vs default greedy (§3.1, §6)", runB14},
	{"B15", "IOB and Block RAM support (§6)", runB15},
	{"B17", "relocation-aware route cache: replay vs search (§3.1, §3.3)", runB17},
}

func main() { os.Exit(run()) }

// run is main's body; it returns the exit status so that the deferred
// profile writers run before the process exits.
func run() int {
	exp := flag.String("exp", "all", "experiment id (E1, E2, B1..B11) or 'all'")
	seed := flag.Int64("seed", 1, "workload seed")
	rows := flag.Int("rows", 16, "default device rows")
	cols := flag.Int("cols", 24, "default device cols")
	list := flag.Bool("list", false, "list experiments and exit")
	paranoid := flag.Bool("paranoid", false, "run every router with ParanoidVerify: re-extract and oracle-audit the frames after each op (slow; for validating benchmark results, not timing them)")
	learnPath := flag.String("learn", "", "run the library learn campaign (stdlib manifest + fan-net warm-up) and write the template library to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after a GC at the end of the run, to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *learnPath != "" {
		if err := runLearn(*learnPath, *seed, *rows, *cols); err != nil {
			fmt.Fprintf(os.Stderr, "learn failed: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return 0
	}
	cfg := config{seed: *seed, rows: *rows, cols: *cols, paranoid: *paranoid}
	want := strings.ToUpper(*exp)
	ran := 0
	for _, e := range experiments {
		if want != "ALL" && e.id != want {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			return 1
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		return 2
	}
	return 0
}

func newDevice(cfg config) (*device.Device, error) {
	return device.New(arch.NewVirtex(), cfg.rows, cfg.cols)
}

func newRouter(cfg config, opts ...core.Option) (*core.Router, error) {
	d, err := newDevice(cfg)
	if err != nil {
		return nil, err
	}
	return core.New(d, append(opts, core.WithParanoidVerify(cfg.paranoid))...), nil
}

// table is a minimal fixed-width table printer.
type table struct {
	cols []string
	rows [][]string
}

func newTable(cols ...string) *table { return &table{cols: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.cols)
	seps := make([]string, len(t.cols))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// median returns the middle value of a sorted copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
