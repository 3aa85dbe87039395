package arch

import "testing"

// FuzzParseWire checks that the wire-name parser never panics and that any
// successfully parsed name round-trips through WireName.
func FuzzParseWire(f *testing.F) {
	a := NewVirtex()
	for _, seed := range []string{
		"S1YQ", "Out[1]", "SingleEast[5]", "HexNorth[11]", "HexMidEast[3]",
		"LongH[0]", "GClk[3]", "West.S0Y", "S0F3", "S0CLK",
		"", "Out[", "Out[]", "Out[99]", "Single[1]", "[[1]]", "Out[-1]",
		"SingleEast[999999999999999999999]",
		"Out[01]", "SingleEast[+5]", "GClk[-0]", " S1YQ\t",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := a.ParseWire(s)
		if err != nil {
			return
		}
		name := a.WireName(w)
		back, err := a.ParseWire(name)
		if err != nil || back != w {
			t.Fatalf("round trip %q -> %d -> %q -> %d, %v", s, w, name, back, err)
		}
	})
}

// FuzzParseTemplateValue mirrors the same property for template names.
func FuzzParseTemplateValue(f *testing.F) {
	for _, seed := range []string{"OUTMUX", "CLBIN", "NORTH6", "west1", " LONGH ", "NONE", "x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseTemplateValue(s)
		if err != nil {
			return
		}
		back, err := ParseTemplateValue(v.String())
		if err != nil || back != v {
			t.Fatalf("round trip %q -> %v", s, v)
		}
	})
}
