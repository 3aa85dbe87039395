package cores

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

// countingHash feeds a sha256 and counts the bytes it was fed.
type countingHash struct {
	hash.Hash
	n int
}

func (h *countingHash) Write(p []byte) (int, error) {
	h.n += len(p)
	return h.Hash.Write(p)
}

// digestStep writes what one step of a core's life left behind: the whole
// configuration, the core's port pins (groups by name, ports in order) and
// the PIP paths of the router's live records, in record order.
func digestStep(t *testing.T, h *countingHash, step string, r *core.Router, c Core) {
	t.Helper()
	stream, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s config %d\n", step, len(stream))
	h.Write(stream)
	base := reflect.ValueOf(c).Elem().FieldByName("Base").Addr().Interface().(*Base)
	var names []string
	for g := range base.groups {
		names = append(names, g)
	}
	slices.Sort(names)
	for _, g := range names {
		for _, p := range c.Ports(g) {
			fmt.Fprintf(h, "port %s %v\n", p.Name(), p.Pins())
		}
	}
	for _, rec := range r.Connections() {
		fmt.Fprintf(h, "record %v\n", rec.Path)
	}
}

// TestLibraryBytesPinned pins what every library core writes, byte for
// byte: on a 16×24 Virtex each core is implemented, removed, re-placed at a
// second site and implemented again, and one sha256 (plus its length)
// covers the configuration after each step, the core's port pins and the
// paths of its records. A refactor of the library must leave it unmoved; a
// change meant to move a core's layout re-pins it.
func TestLibraryBytesPinned(t *testing.T) {
	must := func(c Core, err error) Core {
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	type site struct{ row, col int }
	clb := [2]site{{2, 3}, {9, 13}}
	bram := [2]site{{2, 6}, {9, 18}}
	var contents [arch.BRAMWords]byte
	for i := range contents {
		contents[i] = byte(i*37 + 11)
	}
	cases := []struct {
		name  string
		core  Core
		sites [2]site
	}{
		{"const-adder", must(NewConstAdder("cadd", 5, 0b10110, false)), clb},
		{"const-adder-reg", must(NewConstAdder("caddr", 6, 0b101001, true)), clb},
		{"adder2", must(NewAdder2("add2", 5, false)), clb},
		{"adder2-reg", must(NewAdder2("add2r", 6, true)), clb},
		{"counter", must(NewCounter("ctr", 6, 3)), clb},
		{"const-mul", must(NewConstMul("mul", 5, 4)), clb},
		{"mac", must(NewMAC("mac", 3, 3)), clb},
		{"register", must(NewRegister("reg", 7)), clb},
		{"lfsr", must(NewLFSR("lfsr", 8, 5, 7, 0x5a)), clb},
		{"shift", must(NewShiftRegister("shift", 6)), clb},
		{"mux2", must(NewMux2("mux", 5)), clb},
		{"comparator4", NewComparator4("cmp"), clb},
		{"ram", NewRAM16x8("ram", contents), bram},
		{"rom", NewROM16x8("rom", contents), bram},
	}
	h := &countingHash{Hash: sha256.New()}
	for _, tc := range cases {
		r := newRig(t)
		fmt.Fprintf(h, "core %s\n", tc.name)
		for i, s := range tc.sites {
			if err := tc.core.Place(s.row, s.col); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := tc.core.Implement(r); err != nil {
				t.Fatalf("%s at (%d,%d): %v", tc.name, s.row, s.col, err)
			}
			digestStep(t, h, fmt.Sprintf("implement %d", i), r, tc.core)
			if i == 0 {
				if err := tc.core.Remove(r); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				digestStep(t, h, "remove", r, tc.core)
			}
		}
	}
	const want = "efa77efa7a1c58c9d1fcaa34c983c0556cc8e0dbb63fa6bb1939fcd9c9f5e289"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || h.n != 10192435 {
		t.Errorf("library bytes: %d bytes, sha256 %s; pinned 10192435 bytes, %s", h.n, got, want)
	}
}
