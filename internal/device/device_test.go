package device

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

func virtexDev(t testing.TB) *Device {
	t.Helper()
	d, err := New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	a := arch.NewVirtex()
	if _, err := New(a, 8, 24); err == nil {
		t.Error("rows below 2*HexLen accepted")
	}
	if _, err := New(a, 16, 8); err == nil {
		t.Error("cols below 2*HexLen accepted")
	}
	if _, err := New(a, 12, 12); err != nil {
		t.Errorf("minimal array rejected: %v", err)
	}
	// The size guard checks outside input (a server's reply names the array
	// a client builds), so it must reject before anything is sized by it:
	// no per-geometry adjacency cache, and no allocation to speak of.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range []struct {
		rows, cols int
		why        string
	}{
		{maxSide + 1, 12, "a side beyond an edge's int16 tile offset"},
		{1 << 20, 1 << 20, "a side beyond an edge's int16 tile offset"},
		{4000, 4000, "an array with more tracks than an int32 index"},
		{maxSide, maxSide, "an array with more tracks than an int32 index"},
	} {
		if _, err := New(a, c.rows, c.cols); err == nil {
			t.Errorf("%dx%d: %s accepted", c.rows, c.cols, c.why)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting oversized arrays allocated %d bytes", got)
	}
	adjMu.Lock()
	defer adjMu.Unlock()
	for k := range adjTab {
		if k.rows*k.cols >= 4000*4000 {
			t.Errorf("a rejected %dx%d array left an adjacency cache", k.rows, k.cols)
		}
	}
}

// TestCanonPaperAliases pins the defining aliasing cases from the §3.1
// example: SingleEast[5] at (5,7) is SingleWest[5] at (5,8), and
// SingleNorth[0] at (5,8) is SingleSouth[0] at (6,8).
func TestCanonPaperAliases(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	e57, err := d.Canon(5, 7, a.Single(arch.East, 5))
	if err != nil {
		t.Fatal(err)
	}
	w58, err := d.Canon(5, 8, a.Single(arch.West, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e57 != w58 {
		t.Errorf("SingleEast[5]@(5,7)=%v != SingleWest[5]@(5,8)=%v", e57, w58)
	}
	n58, _ := d.Canon(5, 8, a.Single(arch.North, 0))
	s68, _ := d.Canon(6, 8, a.Single(arch.South, 0))
	if n58 != s68 {
		t.Errorf("SingleNorth[0]@(5,8)=%v != SingleSouth[0]@(6,8)=%v", n58, s68)
	}
	if n58 != (Track{5, 8, a.Single(arch.North, 0)}) {
		t.Errorf("canonical form of SingleNorth[0]@(5,8) = %v", n58)
	}
}

func TestCanonHexAliases(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	e, _ := d.Canon(4, 3, a.Hex(arch.East, 7))
	w, err := d.Canon(4, 9, a.Hex(arch.West, 7))
	if err != nil {
		t.Fatal(err)
	}
	if e != w {
		t.Errorf("HexEast[7]@(4,3)=%v != HexWest[7]@(4,9)=%v", e, w)
	}
	mid, err := d.Canon(4, 6, a.HexMid(arch.East, 7))
	if err != nil {
		t.Fatal(err)
	}
	if mid != e {
		t.Errorf("HexMidEast[7]@(4,6)=%v != HexEast[7]@(4,3)=%v", mid, e)
	}
	n, _ := d.Canon(2, 5, a.Hex(arch.North, 0))
	s, _ := d.Canon(8, 5, a.Hex(arch.South, 0))
	if n != s {
		t.Errorf("HexNorth[0]@(2,5)=%v != HexSouth[0]@(8,5)=%v", n, s)
	}
}

func TestCanonMiscAliases(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	oa, err := d.Canon(3, 4, arch.OutAlias(2))
	if err != nil {
		t.Fatal(err)
	}
	if oa != (Track{3, 3, arch.S0XQ}) {
		t.Errorf("OutAlias(2)@(3,4) = %v, want S0XQ@(3,3)", oa)
	}
	if _, err := d.Canon(3, 0, arch.OutAlias(2)); err == nil {
		t.Error("OutAlias at column 0 accepted")
	}
	g1, _ := d.Canon(3, 4, arch.GClk(1))
	g2, _ := d.Canon(10, 20, arch.GClk(1))
	if g1 != g2 || g1 != (Track{0, 0, arch.GClk(1)}) {
		t.Errorf("GClk canonicalization: %v vs %v", g1, g2)
	}
	lh1, _ := d.Canon(3, 6, a.LongH(4))
	lh2, _ := d.Canon(3, 18, a.LongH(4))
	if lh1 != lh2 || lh1 != (Track{3, 0, a.LongH(4)}) {
		t.Errorf("LongH canonicalization: %v vs %v", lh1, lh2)
	}
	lv1, _ := d.Canon(0, 7, a.LongV(4))
	lv2, _ := d.Canon(12, 7, a.LongV(4))
	if lv1 != lv2 {
		t.Errorf("LongV canonicalization: %v vs %v", lv1, lv2)
	}
}

func TestCanonBounds(t *testing.T) {
	d := virtexDev(t) // 16x24
	a := d.A
	cases := []struct {
		row, col int
		w        arch.Wire
	}{
		{-1, 0, arch.S0X},
		{16, 0, arch.S0X},
		{0, 24, arch.S0X},
		{0, 23, a.Single(arch.East, 0)},  // would leave east edge
		{15, 0, a.Single(arch.North, 0)}, // would leave north edge
		{0, 0, a.Single(arch.South, 0)},  // comes from off-array
		{0, 0, a.Single(arch.West, 0)},
		{11, 0, a.Hex(arch.North, 0)},  // 11+6 = 17 > 15
		{0, 19, a.Hex(arch.East, 0)},   // 19+6 = 25 > 23
		{5, 2, a.HexMid(arch.East, 0)}, // origin col -1
		{0, 0, arch.Invalid},
	}
	for _, c := range cases {
		if _, err := d.Canon(c.row, c.col, c.w); err == nil {
			t.Errorf("Canon(%d,%d,%s) accepted", c.row, c.col, a.WireName(c.w))
		}
	}
}

// TestPaperExampleRoute drives the exact §3.1 low-level example:
//
//	router.route(5, 7, S1_YQ, Out[1]);
//	router.route(5, 7, Out[1], SingleEast[5]);
//	router.route(5, 8, SingleWest[5], SingleNorth[0]);
//	router.route(6, 8, SingleSouth[0], S0F3);
func TestPaperExampleRoute(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	steps := []PIP{
		{5, 7, arch.S1YQ, arch.Out(1)},
		{5, 7, arch.Out(1), a.Single(arch.East, 5)},
		{5, 8, a.Single(arch.West, 5), a.Single(arch.North, 0)},
		{6, 8, a.Single(arch.South, 0), arch.S0F3},
	}
	for _, p := range steps {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("SetPIP %s: %v", d.PIPString(p), err)
		}
	}
	// Each intermediate wire is now in use under both of its names.
	if !d.IsOn(5, 7, arch.Out(1)) {
		t.Error("Out[1]@(5,7) not on")
	}
	if !d.IsOn(5, 7, a.Single(arch.East, 5)) || !d.IsOn(5, 8, a.Single(arch.West, 5)) {
		t.Error("the east single is not on under both names")
	}
	if !d.IsOn(5, 8, a.Single(arch.North, 0)) || !d.IsOn(6, 8, a.Single(arch.South, 0)) {
		t.Error("the north single is not on under both names")
	}
	if !d.IsOn(6, 8, arch.S0F3) {
		t.Error("S0F3@(6,8) not on")
	}
	// The source pin is in use but not "on" (nothing drives an output).
	src, _ := d.Canon(5, 7, arch.S1YQ)
	if d.IsOn(5, 7, arch.S1YQ) {
		t.Error("S1YQ@(5,7) reported as driven")
	}
	if !d.InUse(src) {
		t.Error("S1YQ@(5,7) not reported in use")
	}
	// Walk the driver chain backwards from the sink to the source.
	sink, _ := d.Canon(6, 8, arch.S0F3)
	hops := 0
	cur := sink
	for {
		p, ok := d.DriverOf(cur)
		if !ok {
			break
		}
		hops++
		cur, _ = d.Canon(p.Row, p.Col, p.From)
	}
	if hops != 4 || cur != src {
		t.Errorf("driver chain: %d hops ending at %v, want 4 ending at %v", hops, cur, src)
	}
	if d.OnPIPCount() != 4 {
		t.Errorf("OnPIPCount = %d, want 4", d.OnPIPCount())
	}
}

func TestContention(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	// Drive the single between (5,7) and (5,8) from the west end.
	if err := d.SetPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.Out(1), a.Single(arch.East, 5)); err != nil {
		t.Fatal(err)
	}
	// Now try to drive the same track from the east end (as SingleWest[5]
	// at (5,8)), via an out mux there that reaches single index 5.
	if err := d.SetPIP(5, 8, arch.S1Y, arch.Out(5)); err != nil {
		t.Fatal(err)
	}
	err := d.SetPIP(5, 8, arch.Out(5), a.Single(arch.West, 5))
	var ce *ContentionError
	if !errors.As(err, &ce) {
		t.Fatalf("second driver accepted (err = %v)", err)
	}
	if ce.Track != (Track{5, 7, a.Single(arch.East, 5)}) {
		t.Errorf("contention reported on %v", ce.Track)
	}
	if ce.Error() == "" {
		t.Error("empty contention message")
	}
	// Idempotent re-set of the original PIP is fine.
	if err := d.SetPIP(5, 7, arch.Out(1), a.Single(arch.East, 5)); err != nil {
		t.Errorf("idempotent SetPIP failed: %v", err)
	}
}

func TestSetPIPRejectsIllegal(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	cases := []PIP{
		{5, 5, arch.S0F1, arch.S0F2},                        // input driving input
		{5, 5, arch.S0X, a.Single(arch.East, 0)},            // output directly onto single
		{5, 5, a.Single(arch.East, 0), a.Hex(arch.East, 0)}, // single driving hex
		{5, 5, a.Hex(arch.East, 0), arch.S0F1},              // hex driving input
		{5, 5, a.LongH(0), a.Single(arch.East, 0)},          // long driving single
		{5, 5, a.LongH(0), arch.S0F1},                       // long driving input
	}
	for _, p := range cases {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err == nil {
			t.Errorf("illegal PIP accepted: %s", d.PIPString(p))
		}
	}
}

func TestHexDriveDirectionality(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	// Hex 0 is bidirectional on Virtex, hex 1 is not.
	// Drive hex 0 at its far (west-naming) end: allowed.
	if err := d.SetPIP(5, 7, arch.S0X, arch.Out(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.Out(0), a.Hex(arch.West, 0)); err != nil {
		t.Errorf("far-end drive of bidirectional hex rejected: %v", err)
	}
	// Hex 1: driving HexWest[1] at (5,7) would drive the canonical east
	// hex originating at (5,1) from its far end — not bidirectional.
	if err := d.SetPIP(5, 7, arch.S0Y, arch.Out(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.Out(1), a.Hex(arch.West, 1)); err == nil {
		t.Error("far-end drive of unidirectional hex accepted")
	}
	// Driving it at its origin is fine.
	if err := d.SetPIP(5, 1, arch.S0Y, arch.Out(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 1, arch.Out(1), a.Hex(arch.East, 1)); err != nil {
		t.Errorf("origin drive of unidirectional hex rejected: %v", err)
	}
}

func TestLongLineAccess(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	// Column 6 is an access tile; column 7 is not.
	if err := d.SetPIP(5, 6, arch.S0X, arch.Out(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 6, arch.Out(0), a.LongH(0)); err != nil {
		t.Errorf("long drive at access tile rejected: %v", err)
	}
	if err := d.SetPIP(5, 7, arch.S0X, arch.Out(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.Out(0), a.LongH(8)); err == nil {
		t.Error("long drive at non-access tile accepted")
	}
	// Tapping at another access tile works; at a non-access tile it must not.
	if err := d.SetPIP(5, 12, a.LongH(0), a.Hex(arch.East, 0)); err != nil {
		t.Errorf("long tap at access tile rejected: %v", err)
	}
	if err := d.SetPIP(5, 13, a.LongH(0), a.Hex(arch.East, 0)); err == nil {
		t.Error("long tap at non-access tile accepted")
	}
}

func TestClearPIP(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	p := PIP{5, 7, arch.S1YQ, arch.Out(1)}
	if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err == nil {
		t.Error("clearing an off PIP accepted")
	}
	if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
		t.Fatal(err)
	}
	if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
		t.Fatal(err)
	}
	if d.IsOn(5, 7, arch.Out(1)) {
		t.Error("track still on after ClearPIP")
	}
	if d.OnPIPCount() != 0 {
		t.Error("PIP count nonzero after ClearPIP")
	}
	src, _ := d.Canon(5, 7, arch.S1YQ)
	if d.InUse(src) {
		t.Error("source still in use after ClearPIP")
	}
	_ = a
}

func TestDirectAndFeedback(t *testing.T) {
	d := virtexDev(t)
	// Feedback: S0X drives its own CLB's inputs (pattern k%4 == 0).
	if err := d.SetPIP(5, 5, arch.S0X, arch.S0F1); err != nil {
		t.Errorf("feedback PIP rejected: %v", err)
	}
	// Direct: west neighbour's S0Y (pin 1) reaches this CLB's inputs.
	if err := d.SetPIP(5, 6, arch.OutAlias(1), arch.S0F2); err != nil {
		t.Errorf("direct PIP rejected: %v", err)
	}
	from, _ := d.Canon(5, 6, arch.OutAlias(1))
	if from != (Track{5, 5, arch.S0Y}) {
		t.Errorf("direct source = %v", from)
	}
	if len(d.FanoutOf(from)) != 1 {
		t.Error("direct PIP not recorded in source fanout")
	}
}

func TestGlobalClock(t *testing.T) {
	d := virtexDev(t)
	// The global clock can reach the clock pin of any tile.
	for _, tile := range []Coord{{0, 0}, {7, 13}, {15, 23}} {
		if err := d.SetPIP(tile.Row, tile.Col, arch.GClk(0), arch.S0CLK); err != nil {
			t.Errorf("gclk PIP at %v rejected: %v", tile, err)
		}
	}
	// But not a LUT input.
	if err := d.SetPIP(3, 3, arch.GClk(0), arch.S0F1); err == nil {
		t.Error("gclk onto LUT input accepted")
	}
}

func TestTapsAndLocalNames(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	hex, _ := d.Canon(4, 3, a.Hex(arch.East, 7))
	taps := d.AppendTaps(nil, hex)
	want := []Coord{{4, 3}, {4, 6}, {4, 9}}
	if len(taps) != len(want) {
		t.Fatalf("hex taps = %v", taps)
	}
	for i := range want {
		if taps[i] != want[i] {
			t.Fatalf("hex taps = %v, want %v", taps, want)
		}
	}
	names := []arch.Wire{
		d.LocalName(hex, taps[0]),
		d.LocalName(hex, taps[1]),
		d.LocalName(hex, taps[2]),
	}
	if names[0] != a.Hex(arch.East, 7) || names[1] != a.HexMid(arch.East, 7) || names[2] != a.Hex(arch.West, 7) {
		t.Errorf("hex local names: %v", names)
	}
	if d.LocalName(hex, Coord{4, 4}) != arch.Invalid {
		t.Error("hex has a name at a non-tap tile")
	}
	long, _ := d.Canon(3, 0, a.LongH(2))
	lt := d.AppendTaps(nil, long)
	if len(lt) != 4 { // cols 0, 6, 12, 18 on a 24-wide device
		t.Errorf("long taps = %v", lt)
	}
	out, _ := d.Canon(3, 23, arch.S0X) // east edge: no direct-connect tap
	if len(d.AppendTaps(nil, out)) != 1 {
		t.Errorf("edge output taps = %v", d.AppendTaps(nil, out))
	}
}

// TestAppendTapsAllocatesNothing: with warm scratch, listing a track's
// taps — the search's start positions, a long line's exits, a RoutePath
// step, an adjacency derivation — allocates nothing.
func TestAppendTapsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	d := virtexDev(t)
	a := d.A
	var tracks []Track
	for _, w := range []arch.Wire{arch.S0X, arch.S1YQ, arch.S0F1, a.Hex(arch.East, 7), a.LongH(2), a.LongV(1), arch.GClk(0)} {
		tr, err := d.Canon(6, 6, w)
		if err != nil {
			t.Fatal(err)
		}
		tracks = append(tracks, tr)
	}
	buf := make([]Coord, 0, max(d.Rows, d.Cols))
	if n := testing.AllocsPerRun(100, func() {
		for _, tr := range tracks {
			buf = d.AppendTaps(buf[:0], tr)
		}
	}); n != 0 {
		t.Errorf("AppendTaps into warm scratch allocates %v objects, want 0", n)
	}
}

func TestPIPChoicesFrom(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	// From an out mux in the interior: singles + hexes in 4 directions,
	// no longs (not at an access tile for col 7... col 7%6 != 0).
	mux, _ := d.Canon(5, 7, arch.Out(0))
	choices := d.PIPChoicesFrom(mux)
	if len(choices) == 0 {
		t.Fatal("no choices from out mux")
	}
	kinds := map[arch.Kind]int{}
	for _, p := range choices {
		if p.Row != 5 || p.Col != 7 {
			t.Fatalf("out mux choice at wrong tile: %v", p)
		}
		kinds[a.ClassOf(p.To).Kind]++
	}
	if kinds[arch.KindSingle] != 24 { // 6 per direction (two index classes)
		t.Errorf("single choices = %d, want 24", kinds[arch.KindSingle])
	}
	if kinds[arch.KindHex] == 0 {
		t.Error("no hex choices")
	}
	if kinds[arch.KindLongH] != 0 || kinds[arch.KindLongV] != 0 {
		t.Errorf("long choices at non-access tile: %v", kinds)
	}
	// From a single: choices exist at both end tiles.
	single, _ := d.Canon(5, 7, a.Single(arch.East, 5))
	tiles := map[Coord]bool{}
	for _, p := range d.PIPChoicesFrom(single) {
		tiles[Coord{p.Row, p.Col}] = true
	}
	if !tiles[Coord{5, 7}] || !tiles[Coord{5, 8}] {
		t.Errorf("single choices only at %v", tiles)
	}
}

func TestLUTAndFFConfig(t *testing.T) {
	d := virtexDev(t)
	if _, used := d.GetLUT(3, 3, LUTS0F); used {
		t.Error("unconfigured LUT reported used")
	}
	if err := d.SetLUT(3, 3, LUTS0F, 0x6996); err != nil {
		t.Fatal(err)
	}
	v, used := d.GetLUT(3, 3, LUTS0F)
	if !used || v != 0x6996 {
		t.Errorf("GetLUT = %#x, %v", v, used)
	}
	if !d.CLBActive(3, 3) || d.CLBActive(3, 4) {
		t.Error("CLBActive wrong")
	}
	if err := d.SetFFInit(3, 3, FFS0XQ, true); err != nil {
		t.Fatal(err)
	}
	if !d.FFInit(3, 3, FFS0XQ) || d.FFInit(3, 3, FFS0YQ) {
		t.Error("FFInit wrong")
	}
	if err := d.ClearLUT(3, 3, LUTS0F); err != nil {
		t.Fatal(err)
	}
	if d.CLBActive(3, 3) {
		t.Error("CLB active after ClearLUT")
	}
	if err := d.SetLUT(3, 3, 7, 0); err == nil {
		t.Error("bad LUT index accepted")
	}
	if err := d.SetLUT(99, 3, 0, 0); err == nil {
		t.Error("bad tile accepted")
	}
	d.SetLUT(2, 9, LUTS1G, 1)
	d.SetLUT(1, 4, LUTS0F, 1)
	act := d.ActiveCLBs()
	if len(act) != 2 || act[0] != (Coord{1, 4}) || act[1] != (Coord{2, 9}) {
		t.Errorf("ActiveCLBs = %v", act)
	}
}

func TestBitstreamStateRoundTrip(t *testing.T) {
	src := virtexDev(t)
	a := src.A
	// Configure a little design.
	pips := []PIP{
		{5, 7, arch.S1YQ, arch.Out(1)},
		{5, 7, arch.Out(1), a.Single(arch.East, 5)},
		{5, 8, a.Single(arch.West, 5), a.Single(arch.North, 0)},
		{6, 8, a.Single(arch.South, 0), arch.S0F3},
		{2, 2, arch.S0X, arch.S0F1},
	}
	for _, p := range pips {
		if err := src.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatal(err)
		}
	}
	src.SetLUT(6, 8, LUTS0F, 0xAAAA)
	src.SetFFInit(6, 8, FFS0XQ, true)

	stream, err := src.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	dst := virtexDev(t)
	if err := dst.ApplyConfig(stream); err != nil {
		t.Fatal(err)
	}
	for _, p := range pips {
		if !dst.PIPIsOn(p.Row, p.Col, p.From, p.To) {
			t.Errorf("PIP %s lost in transfer", dst.PIPString(p))
		}
	}
	if v, used := dst.GetLUT(6, 8, LUTS0F); !used || v != 0xAAAA {
		t.Errorf("LUT lost in transfer: %#x %v", v, used)
	}
	if !dst.FFInit(6, 8, FFS0XQ) {
		t.Error("FF init lost in transfer")
	}
	if dst.OnPIPCount() != src.OnPIPCount() {
		t.Errorf("PIP counts differ: %d vs %d", dst.OnPIPCount(), src.OnPIPCount())
	}
}

func TestPartialConfigSmall(t *testing.T) {
	d := virtexDev(t)
	d.ClearDirty()
	if err := d.SetPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
		t.Fatal(err)
	}
	if n := d.DirtyFrameCount(); n != 1 {
		t.Errorf("one PIP dirtied %d frames, want 1", n)
	}
	if d.DirtyFrameCount() >= d.FrameCount()/100 {
		t.Errorf("partial reconfig not much smaller than full: %d of %d frames",
			d.DirtyFrameCount(), d.FrameCount())
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(row, col uint8, w uint16) bool {
		tr := Track{Row: int(row), Col: int(col), W: arch.Wire(w)}
		return TrackOfKey(tr.Key()) == tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SetPIP then ClearPIP always restores the empty state.
func TestSetClearProperty(t *testing.T) {
	d := virtexDev(t)
	a := d.A
	mux, _ := d.Canon(8, 12, arch.Out(3))
	choices := d.PIPChoicesFrom(mux)
	f := func(idx uint16) bool {
		p := choices[int(idx)%len(choices)]
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			return false
		}
		if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			return false
		}
		return d.OnPIPCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
	_ = a
}

// refState is the routing state as the device kept it before state.go: two
// hash maps keyed by Track.Key. It is the reference model the paged,
// index-addressed state is fuzzed against.
type refState struct {
	driver map[Key]PIP   // canonical track -> the PIP driving it
	fanout map[Key][]PIP // canonical track -> on-PIPs sourced from it
}

func newRefState() *refState {
	return &refState{driver: map[Key]PIP{}, fanout: map[Key][]PIP{}}
}

// set mirrors SetPIP: nil, a validation error, or contention (returned as
// the PIP already there).
func (r *refState) set(d *Device, p PIP) (exist PIP, contended bool, err error) {
	from, to, _, err := d.validatePIP(p)
	if err != nil {
		return PIP{}, false, err
	}
	if exist, ok := r.driver[to.Key()]; ok {
		return exist, exist != p, nil
	}
	r.driver[to.Key()] = p
	r.fanout[from.Key()] = append(r.fanout[from.Key()], p)
	return PIP{}, false, nil
}

// clear mirrors ClearPIP; ok is false where ClearPIP must fail.
func (r *refState) clear(d *Device, p PIP) (ok bool) {
	from, to, _, err := d.validatePIP(p)
	if err != nil {
		return false
	}
	if exist, on := r.driver[to.Key()]; !on || exist != p {
		return false
	}
	delete(r.driver, to.Key())
	fk := from.Key()
	list := r.fanout[fk]
	for i, q := range list {
		if q == p {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(r.fanout, fk)
	} else {
		r.fanout[fk] = list
	}
	return true
}

// rebuild mirrors the routing half of RebuildFromBits: every set PIP bit,
// tiles in row-major order, bits in layout order.
func (r *refState) rebuild(t testing.TB, d *Device) {
	t.Helper()
	*r = *newRefState()
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			for i, pair := range d.A.PIPBits() {
				on, err := d.bits.GetBit(row, col, i)
				if err != nil {
					t.Fatal(err)
				}
				if !on {
					continue
				}
				if _, contended, err := r.set(d, PIP{row, col, pair[0], pair[1]}); err != nil || contended {
					t.Fatalf("reference rebuild: PIP bit %d at (%d,%d): contended=%v err=%v", i, row, col, contended, err)
				}
			}
		}
	}
}

// compare holds the device to the reference. The cheap form visits what
// the reference holds; full additionally sweeps every track index, so a
// track the device wrongly believes routed is found too.
func (r *refState) compare(t testing.TB, d *Device, full bool) {
	t.Helper()
	if d.OnPIPCount() != len(r.driver) {
		t.Fatalf("OnPIPCount %d, reference %d", d.OnPIPCount(), len(r.driver))
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	check := func(tr Track) {
		k := tr.Key()
		want, wantOn := r.driver[k]
		if got, on := d.DriverOf(tr); on != wantOn || got != want {
			t.Fatalf("DriverOf(%v) = %v, %v; reference %v, %v", tr, got, on, want, wantOn)
		}
		// Order included: the list must keep the slice's append and
		// swap-remove order, which net tracing (and so routing) observes.
		if got, want := d.FanoutOf(tr), r.fanout[k]; !slices.Equal(got, want) {
			t.Fatalf("FanoutOf(%v) = %v; reference %v", tr, got, want)
		}
		if got, want := d.FanoutCount(tr), len(r.fanout[k]); got != want {
			t.Fatalf("FanoutCount(%v) = %d; reference %d", tr, got, want)
		}
		if got, want := d.InUse(tr), wantOn || len(r.fanout[k]) > 0; got != want {
			t.Fatalf("InUse(%v) = %v; reference %v", tr, got, want)
		}
		// IsOn takes a wire reference: the name resolves to its track first.
		c, ok := d.CanonOK(tr.Row, tr.Col, tr.W)
		_, wantIsOn := r.driver[c.Key()]
		if got := d.IsOn(tr.Row, tr.Col, tr.W); got != (ok && wantIsOn) {
			t.Fatalf("IsOn(%v) = %v; reference %v", tr, got, ok && wantIsOn)
		}
	}
	for k := range r.driver {
		check(TrackOfKey(k))
	}
	for k := range r.fanout {
		check(TrackOfKey(k))
	}
	all := d.AllOnPIPs()
	last := int32(-1)
	for _, p := range all {
		to, ok := d.CanonOK(p.Row, p.Col, p.To)
		if !ok || r.driver[to.Key()] != p {
			t.Fatalf("AllOnPIPs lists %v, which the reference does not hold", p)
		}
		if i := d.TrackIndex(to); i <= last {
			t.Fatalf("AllOnPIPs out of ascending track-index order at %v", p)
		} else {
			last = i
		}
	}
	if len(all) != len(r.driver) {
		t.Fatalf("AllOnPIPs lists %d PIPs, reference %d", len(all), len(r.driver))
	}
	if full {
		for i := int32(0); int(i) < d.NumTracks(); i++ {
			check(d.TrackAt(i))
		}
	}
}

// driveState interprets script as SetPIP/ClearPIP/ApplyConfig/
// RebuildFromBits steps on a 12x16 device and holds the device to the
// reference model after every one.
func driveState(t testing.TB, script []byte) {
	d, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefState()
	var snapshot []byte // a FullConfig taken earlier in the script
	// pick reads a PIP out of the adjacency: a track, then one of its edges.
	pick := func(b []byte) PIP {
		i := int32((int(b[0])<<16 | int(b[1])<<8 | int(b[2])) % d.NumTracks())
		edges, at := d.EdgesAt(i)
		if len(edges) == 0 {
			// Not a canonical source: an arbitrary, mostly illegal PIP.
			tr := d.TrackAt(i)
			return PIP{tr.Row, tr.Col, tr.W, arch.Wire(b[3])}
		}
		return edges[int(b[3])%len(edges)].PIP(at)
	}
	for len(script) >= 5 {
		op, arg := script[0], script[1:5]
		script = script[5:]
		// Of 64 op codes, 45 set, 16 clear and one each snapshots, applies the
		// snapshot and rebuilds: those three move a whole configuration and
		// would otherwise be all the time the fuzzer spends.
		switch op %= 64; op {
		default:
			p := pick(arg)
			exist, contended, refErr := ref.set(d, p)
			err := d.SetPIP(p.Row, p.Col, p.From, p.To)
			var ce *ContentionError
			switch {
			case refErr != nil:
				if err == nil || errors.As(err, &ce) {
					t.Fatalf("SetPIP(%v) = %v; reference rejects it: %v", p, err, refErr)
				}
			case contended:
				if !errors.As(err, &ce) || ce.Existing != exist || ce.Attempt != p {
					t.Fatalf("SetPIP(%v) = %v; reference has contention with %v", p, err, exist)
				}
			case err != nil:
				t.Fatalf("SetPIP(%v) = %v; reference accepts it", p, err)
			}
		case 9, 10, 11, 12, 25, 26, 27, 28, 41, 42, 43, 44, 57, 58, 59, 60:
			// Clear the k-th on-PIP, or an adjacency PIP that is probably off.
			p := pick(arg)
			if all := d.AllOnPIPs(); op%16 != 12 && len(all) > 0 {
				p = all[(int(arg[0])<<8|int(arg[1]))%len(all)]
			}
			want := ref.clear(d, p)
			if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); (err == nil) != want {
				t.Fatalf("ClearPIP(%v) = %v; reference cleared=%v", p, err, want)
			}
		case 61:
			if snapshot, err = d.FullConfig(); err != nil {
				t.Fatal(err)
			}
		case 62:
			if snapshot == nil {
				continue
			}
			if err := d.ApplyConfig(snapshot); err != nil {
				t.Fatal(err)
			}
			ref.rebuild(t, d)
		case 63:
			if err := d.RebuildFromBits(); err != nil {
				t.Fatal(err)
			}
			ref.rebuild(t, d)
		}
		ref.compare(t, d, false)
	}
	ref.compare(t, d, true)
}

// stateScript is a seeded random driveState script.
func stateScript(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, 5*steps)
	rng.Read(script)
	return script
}

// FuzzDeviceState drives random SetPIP/ClearPIP/ApplyConfig/RebuildFromBits
// sequences against the map-based reference model, comparing DriverOf,
// FanoutOf, InUse, OnPIPCount and CheckConsistency after every step.
func FuzzDeviceState(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(stateScript(seed, 300))
	}
	// Dense traffic on one tile: contention, idempotent sets, fanout lists
	// several entries long, pages emptied and reused.
	dense := stateScript(5, 400)
	for i := 0; i+5 <= len(dense); i += 5 {
		dense[i+1], dense[i+2] = 0, dense[i+2]&7
	}
	f.Add(dense)
	// Wide fanout: many PIPs out of a few output pins, cleared from the
	// middle of the lists, which is where removal order can go wrong.
	var fan []byte
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 40; round++ {
		i := (round%3*16+5)*arch.NewVirtex().WireCount() + int(arch.S0X) // an output pin at tiles 5, 21, 37
		for k := 0; k < 8; k++ {
			fan = append(fan, 0, byte(i>>16), byte(i>>8), byte(i), byte(rng.Intn(256)))
		}
		for k := 0; k < 5; k++ {
			fan = append(fan, 9, byte(rng.Intn(256)), byte(rng.Intn(256)), 0, 0)
		}
	}
	f.Add(fan)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 5*2000 {
			script = script[:5*2000]
		}
		driveState(t, script)
	})
}

// TestBlankAndPassiveDevicesHoldNoRoutingState: a blank 64x96 device, and a
// mirror that only patches frames in, allocate no routing state at all —
// several devices share a process (session, board, mirrors), and the paged
// state exists so that they cost what they route, not what they could.
func TestBlankAndPassiveDevicesHoldNoRoutingState(t *testing.T) {
	a := arch.NewVirtex()
	alloc := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if _, err := New(a, 64, 96); err != nil { // the geometry's shared adjacency directory
		t.Fatal(err)
	}
	var blank *Device
	devBytes := alloc(func() { blank, _ = New(a, 64, 96) })
	bitsBytes := alloc(func() {
		_, _ = bitstream.New(bitstream.Layout{Rows: 64, Cols: 96, BytesPerTile: blank.layout.bytesPerTile})
	})
	if over := int64(devBytes) - int64(bitsBytes); over > 1<<20 {
		t.Errorf("a blank 64x96 device allocates %d bytes beyond its bitstream, want under 1 MB", over)
	}

	src, err := New(a, 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for src.OnPIPCount() < 500 {
		i := int32(rng.Intn(src.NumTracks()))
		if edges, at := src.EdgesAt(i); len(edges) > 0 {
			p := edges[rng.Intn(len(edges))].PIP(at)
			_ = src.SetPIP(p.Row, p.Col, p.From, p.To) // contention is fine, skip
		}
	}
	stream, err := src.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	mirror := blank
	if _, err := mirror.ApplyFramesRaw(stream); err != nil {
		t.Fatal(err)
	}
	if mirror.occ != nil || mirror.pages != nil || mirror.freePages != nil {
		t.Error("ApplyFramesRaw allocated routing state on a passive mirror")
	}
	if err := mirror.RebuildFromBits(); err != nil {
		t.Fatal(err)
	}
	if mirror.OnPIPCount() != src.OnPIPCount() {
		t.Errorf("mirror rebuilt %d PIPs, source has %d", mirror.OnPIPCount(), src.OnPIPCount())
	}
	if !slices.Equal(mirror.AllOnPIPs(), src.AllOnPIPs()) {
		t.Error("mirror and source enumerate different on-PIPs")
	}
	// Emptied again, the pages are held for reuse, not leaked per tile.
	held := 0
	for _, pg := range src.pages {
		if pg != nil {
			held++
		}
	}
	for _, p := range src.AllOnPIPs() {
		if err := src.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatal(err)
		}
	}
	if len(src.freePages) != held {
		t.Errorf("%d pages kept for reuse after clearing, %d were live", len(src.freePages), held)
	}
	if err := src.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
