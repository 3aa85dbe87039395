package repro_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "run the mutant table in testdata/mutants.txt")

// mutant is one row of testdata/mutants.txt (its header says what each
// key holds).
type mutant struct {
	name, file, find, replace, pkg, test, why string
}

// readMutants parses the table: blocks of "key: value" lines separated by
// blank lines, # lines ignored, find and replace Go-quoted.
func readMutants(t *testing.T) []mutant {
	t.Helper()
	data, err := os.ReadFile("testdata/mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows []mutant
	for _, block := range strings.Split(string(data), "\n\n") {
		f := map[string]string{}
		for _, line := range strings.Split(block, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			key, val, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("mutants.txt: %q is not a key: value line", line)
			}
			f[key] = val
		}
		if len(f) == 0 {
			continue
		}
		m := mutant{name: f["name"], file: f["file"], pkg: f["pkg"], test: f["test"], why: f["why"]}
		if m.find, err = strconv.Unquote(f["find"]); err == nil {
			m.replace, err = strconv.Unquote(f["replace"])
		}
		if err != nil || m.name == "" || m.file == "" || m.find == "" || m.pkg == "" || m.test == "" || len(f) != 7 {
			t.Fatalf("mutants.txt: row %q: want name, file, find, replace, pkg, test and why, find and replace quoted (%v)", f["name"], err)
		}
		rows = append(rows, m)
	}
	return rows
}

// TestMutants runs the mutant table: each row's file, mutated, is laid over
// the tree with go test -overlay, and the row's test must then fail. A row
// whose snippet does not match exactly once fails too, and so does one
// whose run fails any other way (a mutant that does not build, a package
// that does not load, another test failing): only the named test's own
// failure kills a mutant. It runs only under -mutants (make mutants): a row costs
// a package build and a test run.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the mutant table runs under -mutants")
	}
	rows := readMutants(t)
	if len(rows) == 0 {
		t.Fatal("mutants.txt holds no rows")
	}
	for _, m := range rows {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.find); n != 1 {
				t.Fatalf("%s: the snippet %q matches %d times, want once", m.file, m.find, n)
			}
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutated, overlay := filepath.Join(dir, filepath.Base(m.file)), filepath.Join(dir, "overlay.json")
			js, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.find, m.replace, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlay, js, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command("go", "test", "-count=1", "-vet=off", "-overlay="+overlay, "-run", "^"+m.test+"$", m.pkg).CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("%s survives the mutant of %s (%s):\n%s", m.test, m.file, m.why, out)
			case !bytes.Contains(out, []byte("--- FAIL: "+m.test+" (")):
				t.Errorf("the run against the mutant of %s fails, but not in %s, so it tests nothing:\n%s", m.file, m.test, out)
			}
		})
	}
}
