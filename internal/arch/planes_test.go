package arch

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestPlaneTables holds every embedded plane table to its family: its key
// is the hash of the family's pair enumeration, so New applies it; it
// lists whole planes, so every plane starts a byte; and it names each pair
// at most once, so the bit order is a permutation. Changing the
// architecture model without re-running the census (internal/scenario,
// TestCensusPlanes -update) fails here.
func TestPlaneTables(t *testing.T) {
	ents, err := planeFiles.ReadDir("planes")
	if err != nil || len(ents) == 0 {
		t.Fatalf("no embedded plane tables: %v", err)
	}
	for _, e := range ents {
		name := strings.TrimSuffix(e.Name(), ".txt")
		a, err := ByName(name)
		if err != nil || name == "" {
			t.Errorf("%s: a table for no family: %v", e.Name(), err)
			continue
		}
		raw, _ := planeFiles.ReadFile("planes/" + e.Name())
		pairs := a.PIPPairs()
		if key := fmt.Sprintf("pairs=%016x", HashPairs(pairs)); !strings.Contains(string(raw), "\n"+key+"\n") {
			t.Errorf("%s: measured on another pair enumeration than %s's (%s): re-run the census", e.Name(), name, key)
			continue
		}
		if len(a.planes) == 0 || len(a.planes)%8 != 0 {
			t.Errorf("%s: %d pair indices applied, want whole planes of 8", name, len(a.planes))
		}
		seen := make([]bool, len(pairs))
		for _, i := range a.planes {
			if seen[i] {
				t.Fatalf("%s: pair %d listed twice", name, i)
			}
			seen[i] = true
		}
		byWire := func(x, y [2]Wire) int {
			if x[0] != y[0] {
				return int(x[0] - y[0])
			}
			return int(x[1] - y[1])
		}
		got, want := a.PIPOrder(pairs), slices.Clone(pairs)
		slices.SortFunc(got, byWire)
		slices.SortFunc(want, byWire)
		if !slices.Equal(got, want) {
			t.Errorf("%s: PIPOrder is not a permutation of the enumeration", name)
		}
	}
}

// TestPlaneTableNeedsItsEnumeration builds Virtex with more singles under
// the same name: the table no longer indexes its pairs, so the order falls
// back to enumeration order and the fingerprint moves.
func TestPlaneTableNeedsItsEnumeration(t *testing.T) {
	v := NewVirtex()
	a, err := New(Arch{Name: "virtex", SinglesPerDir: 32, HexesPerDir: 12, HexLen: 6,
		NumLong: 12, LongAccessPeriod: 6, BidiHexPeriod: 2, BRAMColumnPeriod: 12})
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.PIPPairs()
	if a.planes != nil || !slices.Equal(a.PIPOrder(pairs), pairs) {
		t.Errorf("a table measured on another enumeration was applied")
	}
	if a.layoutPrint == v.layoutPrint || Layouts()["virtex"] != v.layoutPrint {
		t.Errorf("fingerprints: changed model %s, virtex %s, Layouts %v", a.layoutPrint, v.layoutPrint, Layouts())
	}
}

// TestPIPBitMatchesPairs reads the pair table at every (from, to) around
// the name space, Invalid and one past the end included: PIPBit answers
// (i, true) exactly for the pair PIPBits lists at i, and false, without
// panicking, for everything else.
func TestPIPBitMatchesPairs(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		n := Wire(a.WireCount())
		side := int(n) + 4 // wires -2 .. n+1
		cell := func(from, to Wire) int { return (int(from)+2)*side + int(to) + 2 }
		want := make([]int, side*side)
		for i := range want {
			want[i] = -1
		}
		for i, p := range a.PIPBits() {
			if want[cell(p[0], p[1])] >= 0 {
				t.Fatalf("%s: PIPBits lists %v twice", a.Name, p)
			}
			want[cell(p[0], p[1])] = i
		}
		for from := Wire(-2); from <= n+1; from++ {
			for to := Wire(-2); to <= n+1; to++ {
				i, ok := a.PIPBit(from, to)
				if w := want[cell(from, to)]; ok != (w >= 0) || ok && i != w {
					t.Fatalf("%s: PIPBit(%d, %d) = %d, %v; PIPBits lists it at %d", a.Name, from, to, i, ok, w)
				}
			}
		}
		for _, w := range []Wire{Invalid, -1 << 31, n, 1<<31 - 1} {
			if _, ok := a.PIPBit(w, a.Single(North, 0)); ok {
				t.Errorf("%s: PIPBit(%d, SingleNorth[0]) is a PIP", a.Name, w)
			}
			if _, ok := a.PIPBit(Out(0), w); ok {
				t.Errorf("%s: PIPBit(Out[0], %d) is a PIP", a.Name, w)
			}
		}
	}
}
