package repro_test

import (
	"os/exec"
	"strings"
	"testing"
)

// evaluationLayer lists the packages that measure or exercise the product
// and that the product must never import: the reproduction's stand-ins for
// BoardScope (debug), the DyNoC experiment (noc), silicon (sim) and the
// timing model (timing), and the test-support generators and harnesses
// (workload, scenario, oracle/fuzz).
var evaluationLayer = []string{
	"repro/internal/debug",
	"repro/internal/noc",
	"repro/internal/sim",
	"repro/internal/timing",
	"repro/internal/workload",
	"repro/internal/scenario",
	"repro/internal/oracle/fuzz",
}

// TestProductImportsNoEvaluationPackage: the daemons (cmd/jrouted,
// cmd/jgateway) and everything they link are the product; the evaluation
// layer may read the product, never the reverse. It lists the daemons'
// dependencies with `go list -deps` and fails on any evaluation package
// among them, and on any package under internal/ that is neither linked by
// a daemon nor listed in evaluationLayer, so that a new package is placed
// on one side on purpose. It reads the files on disk, so a `go test
// -overlay` mutant cannot reach it.
func TestProductImportsNoEvaluationPackage(t *testing.T) {
	list := func(args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		set := map[string]bool{}
		for _, p := range strings.Fields(string(out)) {
			if strings.HasPrefix(p, "repro/internal/") {
				set[p] = true
			}
		}
		return set
	}
	product := list("-deps", "./cmd/jrouted", "./cmd/jgateway")
	if len(product) == 0 {
		t.Fatal("go list found no internal package behind the daemons")
	}
	eval := map[string]bool{}
	for _, p := range evaluationLayer {
		eval[p] = true
		if product[p] {
			t.Errorf("%s is linked into the daemons; the product must not import the evaluation layer", p)
		}
	}
	for p := range list("./internal/...") {
		if !product[p] && !eval[p] {
			t.Errorf("%s is neither linked by a daemon nor listed in evaluationLayer", p)
		}
	}
}
