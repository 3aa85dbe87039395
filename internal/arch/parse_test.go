package arch

import "testing"

// Property: ParseWire inverts WireName for every wire of both
// architectures.
func TestParseWireRoundTrip(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		for w := Wire(0); w < Wire(a.WireCount()); w++ {
			name := a.WireName(w)
			got, err := a.ParseWire(name)
			if err != nil {
				t.Fatalf("%s: ParseWire(%q): %v", a.Name, name, err)
			}
			if got != w {
				t.Fatalf("%s: ParseWire(%q) = %d, want %d", a.Name, name, got, w)
			}
		}
	}
}

func TestParseWireErrors(t *testing.T) {
	a := NewVirtex()
	for _, s := range []string{
		"", "S9X", "Out[9]", "Out[x]", "Out", "Single[1]", "SingleUp[1]",
		"SingleEast[99]", "West.NOPE", "LongH[99]", "GClk[-1]",
		// Only the spelling WireName prints: no other way to write an index.
		"Out[01]", "SingleEast[+5]", "GClk[-0]", "HexNorth[ 4]", "LongV[0x1]",
	} {
		if _, err := a.ParseWire(s); err == nil {
			t.Errorf("ParseWire(%q) accepted", s)
		}
	}
}

func TestParsePin(t *testing.T) {
	a := NewVirtex()
	row, col, w, err := a.ParsePin("5, 7, S1YQ")
	if err != nil || row != 5 || col != 7 || w != S1YQ {
		t.Errorf("ParsePin = %d,%d,%d,%v", row, col, w, err)
	}
	for _, s := range []string{"5,7", "x,7,S1YQ", "5,y,S1YQ", "5,7,NOPE"} {
		if _, _, _, err := a.ParsePin(s); err == nil {
			t.Errorf("ParsePin(%q) accepted", s)
		}
	}
}
