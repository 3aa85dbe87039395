package main

import (
	"io"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// smokeScale cuts every script to about 1% so that the whole benchmark runs
// inside `go test ./...`, also under -short and -race.
const smokeScale = 0.01

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecShape holds BENCHMARK.json to the limits of its contract and to
// the workloads this package actually has.
func TestSpecShape(t *testing.T) {
	spec := loadTestSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, '_', '.', '-'", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		check("per-layer metric", m.Name)
	}
}

// TestSmokeDefaultPass runs every workload's default pass at smoke scale
// and requires every declared end-to-end metric, none of them zero.
func TestSmokeDefaultPass(t *testing.T) {
	runtime.GOMAXPROCS(2)
	spec := loadTestSpec(t)
	for _, s := range workloads {
		res, err := runDefault(s, 1, schedule{scale: smokeScale, setups: 1, minReps: 2})
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := pick(spec.EndToEnd, res.metrics)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for name, v := range metrics {
			if v.Value == 0 {
				t.Errorf("%s: %s is 0", s.name, name)
			}
		}
		if err := printPass(io.Discard, spec, res); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// TestSmokeTracedPass runs the traced pass at smoke scale and requires
// every declared per-layer metric. It builds the service stack at seven
// depths, so -short leaves it out.
func TestSmokeTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("traced pass builds seven service stacks")
	}
	runtime.GOMAXPROCS(2)
	spec := loadTestSpec(t)
	var out strings.Builder
	if err := tracedRun(&out, spec, "gateway_churn", 1, smokeScale, t.TempDir()+"/spans.jsonl"); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if !strings.Contains(out.String(), `"`+m.Name+`":{"value":`) {
			t.Errorf("traced pass did not emit %s", m.Name)
		}
	}
}

// TestGateTripsOnCorruptMirror damages a session's mirror behind the
// client's back and requires the correctness gate to notice. That the gate
// passes on a healthy system is TestSmokeDefaultPass's business.
func TestGateTripsOnCorruptMirror(t *testing.T) {
	runtime.GOMAXPROCS(2)
	w := newGatewayChurn(1, smokeScale)
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := oneRep(w, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.main.csess[0].Mirror.SetLUT(1, 1, 0, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(); err == nil {
		t.Fatal("gate passed with a corrupted mirror")
	} else {
		t.Logf("gate tripped: %v", err)
	}
}
