package arch

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	base := Arch{
		Name: "t", SinglesPerDir: 8, HexesPerDir: 4, HexLen: 2,
		NumLong: 1, LongAccessPeriod: 2,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid arch rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Arch)
	}{
		{"empty name", func(a *Arch) { a.Name = "" }},
		{"singles not multiple of 8", func(a *Arch) { a.SinglesPerDir = 10 }},
		{"singles zero", func(a *Arch) { a.SinglesPerDir = 0 }},
		{"hexes not multiple of 4", func(a *Arch) { a.HexesPerDir = 6 }},
		{"hexlen odd", func(a *Arch) { a.HexLen = 3 }},
		{"hexlen too small", func(a *Arch) { a.HexLen = 0 }},
		{"no longs", func(a *Arch) { a.NumLong = 0 }},
		{"access period", func(a *Arch) { a.LongAccessPeriod = 1 }},
		{"negative bidi", func(a *Arch) { a.BidiHexPeriod = -1 }},
	}
	for _, c := range cases {
		bad := base
		c.mut(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"", "virtex"},
		{"virtex", "virtex"},
		{"kestrel", "kestrel"},
		{"Virtex", ""},
		{"spartan", ""},
	} {
		a, err := ByName(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", tc.name, a.Name)
		case tc.want != "" && (err != nil || a.Name != tc.want):
			t.Errorf("ByName(%q) = %v, %v, want %s", tc.name, a, err, tc.want)
		}
	}
}

func TestVirtexParameters(t *testing.T) {
	a := NewVirtex()
	// §2: "There are 24 single length lines in each of the four
	// directions ... Only 12 in each direction can be accessed by any
	// given logic block ... connect to a GRM six blocks away ... There
	// are also 12 long lines ... Long lines can be accessed every 6
	// blocks."
	if a.SinglesPerDir != 24 {
		t.Errorf("SinglesPerDir = %d, want 24", a.SinglesPerDir)
	}
	if a.HexesPerDir != 12 {
		t.Errorf("HexesPerDir = %d, want 12", a.HexesPerDir)
	}
	if a.HexLen != 6 {
		t.Errorf("HexLen = %d, want 6", a.HexLen)
	}
	if a.NumLong != 12 {
		t.Errorf("NumLong = %d, want 12", a.NumLong)
	}
	if a.LongAccessPeriod != 6 {
		t.Errorf("LongAccessPeriod = %d, want 6", a.LongAccessPeriod)
	}
	if !a.HexBidirectional(0) || a.HexBidirectional(1) {
		t.Errorf("Virtex bidi hexes should be the even indices")
	}
}

func TestWireLayoutRoundTrip(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		seen := map[Wire]string{}
		record := func(w Wire, what string) {
			t.Helper()
			if w == Invalid {
				t.Fatalf("%s: invalid wire (%s)", a.Name, what)
			}
			if prev, dup := seen[w]; dup {
				t.Fatalf("%s: wire %d used by both %s and %s", a.Name, w, prev, what)
			}
			seen[w] = what
		}
		for p := 0; p < NumOutPins; p++ {
			record(OutPin(p), "outpin")
			record(OutAlias(p), "outalias")
		}
		for i := 0; i < NumOutMux; i++ {
			record(Out(i), "outmux")
		}
		for i := 0; i < NumInputs; i++ {
			record(Input(i), "input")
		}
		for i := 0; i < NumCtrl; i++ {
			record(ctrlBase+Wire(i), "ctrl")
		}
		for g := 0; g < NumGClk; g++ {
			record(GClk(g), "gclk")
		}
		for i := 0; i < NumIOBIn; i++ {
			record(IOBIn(i), "iobin")
		}
		for i := 0; i < NumIOBOut; i++ {
			record(IOBOut(i), "iobout")
		}
		for i := 0; i < NumBRAMAddr; i++ {
			record(BRAMAddr(i), "bramaddr")
		}
		for i := 0; i < NumBRAMDin; i++ {
			record(BRAMDin(i), "bramdin")
		}
		record(BRAMWE(), "bramwe")
		record(BRAMClk(), "bramclk")
		for i := 0; i < NumBRAMDout; i++ {
			record(BRAMDout(i), "bramdout")
		}
		for _, d := range allDirs {
			for i := 0; i < a.SinglesPerDir; i++ {
				record(a.Single(d, i), "single")
			}
			for i := 0; i < a.HexesPerDir; i++ {
				record(a.Hex(d, i), "hex")
			}
		}
		for _, d := range []Dir{North, East} {
			for i := 0; i < a.HexesPerDir; i++ {
				record(a.HexMid(d, i), "hexmid")
			}
		}
		for i := 0; i < a.NumLong; i++ {
			record(a.LongH(i), "longh")
			record(a.LongV(i), "longv")
		}
		if len(seen) != a.WireCount() {
			t.Errorf("%s: enumerated %d wires, WireCount() = %d", a.Name, len(seen), a.WireCount())
		}
	}
}

func TestClassOf(t *testing.T) {
	a := NewVirtex()
	cases := []struct {
		w    Wire
		want Class
	}{
		{S1YQ, Class{KindOutPin, DirNone, 7}},
		{Out(1), Class{KindOutMux, DirNone, 1}},
		{S0F3, Class{KindInput, DirNone, 2}},
		{S1CLK, Class{KindCtrl, DirNone, 5}},
		{GClk(2), Class{KindGClk, DirNone, 2}},
		{OutAlias(3), Class{KindOutAlias, West, 3}},
		{a.Single(East, 5), Class{KindSingle, East, 5}},
		{a.Single(West, 23), Class{KindSingle, West, 23}},
		{a.Hex(North, 4), Class{KindHex, North, 4}},
		{a.HexMid(East, 11), Class{KindHexMid, East, 11}},
		{a.LongH(3), Class{KindLongH, DirNone, 3}},
		{a.LongV(0), Class{KindLongV, DirNone, 0}},
		{Invalid, Class{KindInvalid, DirNone, -1}},
		{Wire(a.WireCount()), Class{KindInvalid, DirNone, -1}},
	}
	for _, c := range cases {
		if got := a.ClassOf(c.w); got != c.want {
			t.Errorf("ClassOf(%s=%d) = %+v, want %+v", a.WireName(c.w), c.w, got, c.want)
		}
	}
}

// TestClassTableMatchesClassify holds ClassOf's table to the switch it was
// built from, for every wire of both architectures and one past each end.
func TestClassTableMatchesClassify(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		for w := Wire(-1); w <= Wire(a.WireCount()); w++ {
			if got, want := a.ClassOf(w), a.classify(w); got != want {
				t.Errorf("%s: ClassOf(%d) = %+v, classify says %+v", a.Name, w, got, want)
			}
		}
		for _, w := range []Wire{-1, Wire(a.WireCount())} {
			if c := a.ClassOf(w); c.Kind != KindInvalid {
				t.Errorf("%s: ClassOf(%d) = %+v, want KindInvalid", a.Name, w, c)
			}
		}
	}
}

// TestSlots holds the slot numbering to IsCanonicalWire: one slot per
// canonical name in ascending wire order, none for an alias name or a wire
// outside the name space.
func TestSlots(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		next := 0
		for w := Wire(-1); w <= Wire(a.WireCount()); w++ {
			s := a.SlotOf(w)
			if !a.IsCanonicalWire(w) {
				if s != -1 {
					t.Errorf("%s: alias %s has slot %d", a.Name, a.WireName(w), s)
				}
				continue
			}
			if s != next || a.SlotWire(s) != w {
				t.Errorf("%s: %s has slot %d (want %d), which names %s", a.Name, a.WireName(w), s, next, a.WireName(a.SlotWire(s)))
			}
			next++
		}
		if a.Slots() != next {
			t.Errorf("%s: Slots() = %d, counted %d canonical names", a.Name, a.Slots(), next)
		}
	}
	if got := NewVirtex().Slots(); got != 164 {
		t.Errorf("Virtex has %d slots a tile, want 164", got)
	}
}

func TestWireNames(t *testing.T) {
	a := NewVirtex()
	cases := map[Wire]string{
		S1YQ:               "S1YQ",
		S0F3:               "S0F3",
		Out(1):             "Out[1]",
		a.Single(East, 5):  "SingleEast[5]",
		a.Single(North, 0): "SingleNorth[0]",
		a.Hex(South, 7):    "HexSouth[7]",
		a.HexMid(North, 2): "HexMidNorth[2]",
		a.LongH(11):        "LongH[11]",
		GClk(0):            "GClk[0]",
		OutAlias(1):        "West.S0Y",
	}
	for w, want := range cases {
		if got := a.WireName(w); got != want {
			t.Errorf("WireName(%d) = %q, want %q", w, got, want)
		}
	}
}

func TestLUTInput(t *testing.T) {
	if LUTInput(0, 0, 3) != S0F3 {
		t.Errorf("LUTInput(0,0,3) != S0F3")
	}
	if LUTInput(1, 1, 4) != S1G4 {
		t.Errorf("LUTInput(1,1,4) != S1G4")
	}
	for _, bad := range [][3]int{{2, 0, 1}, {0, 2, 1}, {0, 0, 0}, {0, 0, 5}, {-1, 0, 1}} {
		if LUTInput(bad[0], bad[1], bad[2]) != Invalid {
			t.Errorf("LUTInput(%v) should be Invalid", bad)
		}
	}
}

func TestDirHelpers(t *testing.T) {
	for _, d := range allDirs {
		if d.Opposite().Opposite() != d {
			t.Errorf("double Opposite of %s", d)
		}
		dr, dc := d.Delta()
		or, oc := d.Opposite().Delta()
		if dr+or != 0 || dc+oc != 0 {
			t.Errorf("Delta of %s and opposite do not cancel", d)
		}
	}
	dr, dc := North.Delta()
	if dr != 1 || dc != 0 {
		t.Errorf("North.Delta() = (%d,%d), want (1,0): rows grow northward", dr, dc)
	}
	dr, dc = East.Delta()
	if dr != 0 || dc != 1 {
		t.Errorf("East.Delta() = (%d,%d), want (0,1): cols grow eastward", dr, dc)
	}
}

// TestConnectivityRules checks the §2 sentence kind-by-kind: "Logic block
// outputs drive all length interconnects, longs can drive hexes only, hexes
// drive singles and other hexes, and singles drive logic block inputs,
// vertical long lines, and other singles."
func TestConnectivityRules(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		allowed := map[Kind]map[Kind]bool{
			KindOutPin:   {KindOutMux: true, KindInput: true, KindCtrl: true},
			KindOutAlias: {KindInput: true},
			KindOutMux:   {KindSingle: true, KindHex: true, KindLongH: true, KindLongV: true},
			KindSingle:   {KindInput: true, KindCtrl: true, KindLongV: true, KindSingle: true, KindIOBOut: true, KindBRAMIn: true},
			KindHex:      {KindSingle: true, KindHex: true},
			KindHexMid:   {KindSingle: true, KindHex: true},
			KindLongH:    {KindHex: true},
			KindLongV:    {KindHex: true},
			KindGClk:     {KindCtrl: true, KindBRAMClk: true},
			KindIOBIn:    {KindSingle: true, KindHex: true},
			KindBRAMOut:  {KindSingle: true, KindHex: true},
			KindInput:    {},
			KindCtrl:     {},
			KindIOBOut:   {},
			KindBRAMIn:   {},
			KindBRAMClk:  {},
		}
		for w := Wire(0); w < Wire(a.WireCount()); w++ {
			fk := a.ClassOf(w).Kind
			for _, to := range a.LocalFanout(w) {
				tk := a.ClassOf(to).Kind
				if !allowed[fk][tk] {
					t.Fatalf("%s: illegal rule %s(%s) -> %s(%s)",
						a.Name, a.WireName(w), fk, a.WireName(to), tk)
				}
			}
			if fk == KindInput || fk == KindCtrl {
				if len(a.LocalFanout(w)) != 0 {
					t.Fatalf("%s: sink %s has fanout", a.Name, a.WireName(w))
				}
			}
		}
	}
}

// TestReachabilityPatterns verifies the index patterns leave no orphans:
// every LUT input is drivable by some single, every single index is
// drivable by some out mux, every hex by some out mux, every single index
// reachable from every other via at most a few single-to-single turns.
func TestReachabilityPatterns(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		drivers := func(to Wire) int { return len(a.LocalDrivers(to)) }
		for k := 0; k < NumInputs; k++ {
			if drivers(Input(k)) == 0 {
				t.Errorf("%s: input %s has no drivers", a.Name, a.WireName(Input(k)))
			}
		}
		for i := 0; i < a.SinglesPerDir; i++ {
			for _, d := range allDirs {
				if drivers(a.Single(d, i)) == 0 {
					t.Errorf("%s: single %s undrivable", a.Name, a.WireName(a.Single(d, i)))
				}
			}
		}
		for i := 0; i < a.HexesPerDir; i++ {
			for _, d := range allDirs {
				if drivers(a.Hex(d, i)) == 0 {
					t.Errorf("%s: hex %s undrivable", a.Name, a.WireName(a.Hex(d, i)))
				}
			}
		}
		for i := 0; i < a.NumLong; i++ {
			if drivers(a.LongH(i)) == 0 || drivers(a.LongV(i)) == 0 {
				t.Errorf("%s: long %d undrivable", a.Name, i)
			}
		}
		// Single index closure under turns.
		reach := map[int]bool{0: true}
		frontier := []int{0}
		for len(frontier) > 0 {
			i := frontier[0]
			frontier = frontier[1:]
			for _, to := range a.LocalFanout(a.Single(North, i)) {
				c := a.ClassOf(to)
				if c.Kind == KindSingle && !reach[c.Index] {
					reach[c.Index] = true
					frontier = append(frontier, c.Index)
				}
			}
		}
		if len(reach) != a.SinglesPerDir {
			t.Errorf("%s: single turn closure reaches %d of %d indices",
				a.Name, len(reach), a.SinglesPerDir)
		}
	}
}

func TestTemplateValues(t *testing.T) {
	a := NewVirtex()
	cases := []struct {
		from, to Wire
		want     TemplateValue
	}{
		{S1YQ, Out(1), TVOutMux},
		{Out(1), a.Single(East, 5), TVEast1},
		{a.Single(West, 5), a.Single(North, 0), TVNorth1},
		{a.Single(South, 0), S0F3, TVClbIn},
		{Out(0), a.Hex(North, 4), TVNorth6},
		{a.Hex(West, 2), a.Single(South, 4), TVSouth1},
		{Out(0), a.LongH(0), TVLongH},
		{Out(0), a.LongV(8), TVLongV},
		{S0X, S0F1, TVFeedback},
		{OutAlias(0), S0F1, TVDirect},
		{GClk(0), S0CLK, TVGClk},
	}
	for _, c := range cases {
		if got := a.DriveTemplate(c.from, c.to); got != c.want {
			t.Errorf("DriveTemplate(%s, %s) = %s, want %s",
				a.WireName(c.from), a.WireName(c.to), got, c.want)
		}
	}
}

func TestTemplateValueStringsRoundTrip(t *testing.T) {
	for v := TVOutMux; v < numTemplateValues; v++ {
		got, err := ParseTemplateValue(v.String())
		if err != nil || got != v {
			t.Errorf("round trip of %s failed: %v %v", v, got, err)
		}
	}
	if _, err := ParseTemplateValue("NOPE"); err == nil {
		t.Error("ParseTemplateValue(NOPE) should fail")
	}
	if _, err := ParseTemplateValue("NONE"); err == nil {
		t.Error("ParseTemplateValue(NONE) should fail: NONE is not usable in a template")
	}
}

func TestTVHelpers(t *testing.T) {
	a := NewVirtex()
	for _, d := range allDirs {
		if TVDir(SingleTV(d)) != d {
			t.Errorf("TVDir(SingleTV(%s))", d)
		}
		if TVDir(HexTV(d)) != d {
			t.Errorf("TVDir(HexTV(%s))", d)
		}
		if a.TVSpan(SingleTV(d)) != 1 {
			t.Errorf("span of %s", SingleTV(d))
		}
		if a.TVSpan(HexTV(d)) != a.HexLen {
			t.Errorf("span of %s", HexTV(d))
		}
	}
	if TVDir(TVOutMux) != DirNone || a.TVSpan(TVClbIn) != 0 {
		t.Error("non-directional template values misclassified")
	}
}

// Property: LocalDrivers is exactly the inverse of LocalFanout.
func TestFanoutDriverInverse(t *testing.T) {
	a := NewVirtex()
	f := func(raw uint16) bool {
		w := Wire(int(raw) % a.WireCount())
		for _, to := range a.LocalFanout(w) {
			found := false
			for _, back := range a.LocalDrivers(to) {
				if back == w {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: classification is stable and names are unique per wire.
func TestWireNameUnique(t *testing.T) {
	for _, a := range []*Arch{NewVirtex(), NewKestrel()} {
		names := make(map[string]Wire, a.WireCount())
		for w := Wire(0); w < Wire(a.WireCount()); w++ {
			n := a.WireName(w)
			if prev, ok := names[n]; ok {
				t.Fatalf("%s: name %q shared by wires %d and %d", a.Name, n, prev, w)
			}
			names[n] = w
		}
	}
}

func TestIsCanonicalWire(t *testing.T) {
	a := NewVirtex()
	canon := []Wire{S0X, Out(3), S0F1, S0CLK, GClk(1),
		a.Single(North, 2), a.Single(East, 2), a.Hex(North, 3), a.Hex(East, 3),
		a.LongH(0), a.LongV(0)}
	alias := []Wire{OutAlias(0), a.Single(South, 2), a.Single(West, 2),
		a.Hex(South, 3), a.Hex(West, 3), a.HexMid(North, 1), a.HexMid(East, 1)}
	for _, w := range canon {
		if !a.IsCanonicalWire(w) {
			t.Errorf("%s should be canonical", a.WireName(w))
		}
	}
	for _, w := range alias {
		if a.IsCanonicalWire(w) {
			t.Errorf("%s should be an alias", a.WireName(w))
		}
	}
}

func TestVirtexSizes(t *testing.T) {
	sizes := VirtexSizes()
	if len(sizes) == 0 {
		t.Fatal("no sizes")
	}
	first, last := sizes[0], sizes[len(sizes)-1]
	if first.Rows != 16 || first.Cols != 24 {
		t.Errorf("smallest device %dx%d, want 16x24 (§2)", first.Rows, first.Cols)
	}
	if last.Rows != 64 || last.Cols != 96 {
		t.Errorf("largest device %dx%d, want 64x96 (§2)", last.Rows, last.Cols)
	}
}
