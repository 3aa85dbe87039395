package main

import (
	"fmt"
	"io"
	"math"
)

// exactMetrics are the end-to-end metrics that are pure counts of a fixed
// script: two runs of the same code and seed must agree on them to the
// last digit, whatever their bound says.
var exactMetrics = map[string]bool{"pips_per_sink": true, "frames_per_op": true}

// runSelfcheck runs the default pass twice back to back and prints, per
// workload and end-to-end metric, both values, their relative difference
// and the metric's bound. It fails if a difference exceeds its bound or a
// count metric differs at all: a benchmark whose two sets of runs of the
// same code disagree by more than a bound cannot hold a change to it.
func runSelfcheck(w io.Writer, spec *benchSpec, selected []workloadSpec, seed int64, seconds float64) error {
	var over []string
	for _, s := range selected {
		var runs [2]*passResult
		for i := range runs {
			var err error
			if runs[i], err = runDefault(s, seed, fullSchedule(seconds)); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s (%d and %d repetitions)\n  %-16s %14s %14s %8s %8s\n", s.name,
			runs[0].reps, runs[1].reps, "metric", "first", "second", "differ", "bound")
		for _, d := range spec.EndToEnd {
			a, b := runs[0].metrics[d.Name], runs[1].metrics[d.Name]
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if diff > d.Bound || (exactMetrics[d.Name] && a != b) {
				verdict = "  OVER"
				over = append(over, s.name+"/"+d.Name)
			}
			fmt.Fprintf(w, "  %-16s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same code disagree beyond the bound on %v", over)
	}
	fmt.Fprintln(w, "selfcheck: every metric of both runs agrees within its bound")
	return nil
}
