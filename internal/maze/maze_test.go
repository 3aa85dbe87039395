package maze

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

func virtexDev(t testing.TB) *device.Device {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func apply(t *testing.T, d *device.Device, r *Route) {
	t.Helper()
	for _, p := range r.PIPs {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("applying %s: %v", d.PIPString(p), err)
		}
	}
}

// chainEndpoints walks the driver chain from a sink back to its root source
// track.
func chainRoot(d *device.Device, sink device.Track) device.Track {
	cur := sink
	for {
		p, ok := d.DriverOf(cur)
		if !ok {
			return cur
		}
		cur, _ = d.Canon(p.Row, p.Col, p.From)
	}
}

// TestTemplateRoutePaperExample reproduces the §3.1 template example:
//
//	int[] t = {OUTMUX, EAST1, NORTH1, CLBIN};
//	Pin src = new Pin(5, 7, S1_YQ);
//	router.route(src, S0F3, template);
func TestTemplateRoutePaperExample(t *testing.T) {
	d := virtexDev(t)
	src, err := d.Canon(5, 7, arch.S1YQ)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := []arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVNorth1, arch.TVClbIn}
	r, err := TemplateRoute(d, src, arch.S0F3, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PIPs) != 4 {
		t.Fatalf("template route used %d PIPs, want 4: %v", len(r.PIPs), r.PIPs)
	}
	apply(t, d, r)
	sink, _ := d.Canon(6, 8, arch.S0F3)
	if !d.IsOn(6, 8, arch.S0F3) {
		t.Error("sink not driven")
	}
	if root := chainRoot(d, sink); root != src {
		t.Errorf("net root = %v, want %v", root, src)
	}
	// The final PIP must land exactly on the requested end wire at (6,8).
	last := r.PIPs[len(r.PIPs)-1]
	if last.To != arch.S0F3 || last.Row != 6 || last.Col != 8 {
		t.Errorf("final PIP = %v", last)
	}
}

func TestTemplateRouteAvoidsUsedWires(t *testing.T) {
	d := virtexDev(t)
	tmpl := []arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVNorth1, arch.TVClbIn}
	src, _ := d.Canon(5, 7, arch.S1YQ)
	first, err := TemplateRoute(d, src, arch.S0F3, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	apply(t, d, first)
	// Same template from the other registered output: must pick entirely
	// different wires, since the first route's wires are in use.
	src2, _ := d.Canon(5, 7, arch.S1XQ)
	second, err := TemplateRoute(d, src2, arch.S0G3, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	used := map[device.Key]bool{}
	for _, p := range first.PIPs {
		tr, _ := d.Canon(p.Row, p.Col, p.To)
		used[tr.Key()] = true
	}
	for _, p := range second.PIPs {
		tr, _ := d.Canon(p.Row, p.Col, p.To)
		if used[tr.Key()] {
			t.Errorf("second route reuses driven wire %s", d.A.WireName(tr.W))
		}
	}
	apply(t, d, second)
}

func TestTemplateRouteFailures(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(5, 7, arch.S1YQ)
	if _, err := TemplateRoute(d, src, arch.S0F3, nil); !errors.Is(err, ErrUnroutable) {
		t.Errorf("empty template: %v", err)
	}
	bad := []arch.TemplateValue{arch.TVOutMux, arch.TVNone}
	if _, err := TemplateRoute(d, src, arch.S0F3, bad); !errors.Is(err, ErrUnroutable) {
		t.Errorf("NONE in template: %v", err)
	}
	// A template that cannot reach the end wire (wrong final hop kind).
	impossible := []arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVClbIn}
	if _, err := TemplateRoute(d, src, arch.Out(7), impossible); !errors.Is(err, ErrUnroutable) {
		t.Errorf("unreachable end wire: %v", err)
	}
	// Templates ending mid-fabric with a wire that is not there: going
	// west from column 0.
	edge, _ := d.Canon(3, 0, arch.S0X)
	west := []arch.TemplateValue{arch.TVOutMux, arch.TVWest1, arch.TVClbIn}
	if _, err := TemplateRoute(d, edge, arch.S0F1, west); !errors.Is(err, ErrUnroutable) {
		t.Errorf("west off the edge: %v", err)
	}
}

func TestAStarPointToPoint(t *testing.T) {
	d := virtexDev(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		d2 := virtexDev(t)
		sr, sc := rng.Intn(16), rng.Intn(24)
		tr, tc := rng.Intn(16), rng.Intn(24)
		src, _ := d2.Canon(sr, sc, arch.S0XQ)
		sink, _ := d2.Canon(tr, tc, arch.S1G2)
		r, err := AStar(d2, []device.Track{src}, sink, Options{})
		if err != nil {
			t.Fatalf("trial %d: (%d,%d)->(%d,%d): %v", trial, sr, sc, tr, tc, err)
		}
		apply(t, d2, r)
		if root := chainRoot(d2, sink); root != src {
			t.Fatalf("trial %d: net root = %v, want %v", trial, root, src)
		}
	}
	_ = d
}

func TestAStarSameTileAndNeighbours(t *testing.T) {
	d := virtexDev(t)
	cases := []struct{ sr, sc, tr, tc int }{
		{5, 5, 5, 5},   // feedback or out-and-back
		{5, 5, 5, 6},   // direct east
		{5, 6, 5, 5},   // west neighbour (no direct connect that way)
		{5, 5, 6, 5},   // north neighbour
		{15, 23, 0, 0}, // corner to corner
	}
	for _, c := range cases {
		d2 := virtexDev(t)
		src, _ := d2.Canon(c.sr, c.sc, arch.S0X)
		sink, _ := d2.Canon(c.tr, c.tc, arch.S0F1)
		r, err := AStar(d2, []device.Track{src}, sink, Options{})
		if err != nil {
			t.Fatalf("(%d,%d)->(%d,%d): %v", c.sr, c.sc, c.tr, c.tc, err)
		}
		apply(t, d2, r)
		if root := chainRoot(d2, sink); root != src {
			t.Fatalf("(%d,%d)->(%d,%d): wrong root", c.sr, c.sc, c.tr, c.tc)
		}
	}
	_ = d
}

func TestLeeFindsPathsAndExploresMore(t *testing.T) {
	// A 12-column span: Lee must flood a large region; A* should stay
	// focused. Both must succeed and agree on connectivity.
	dA := virtexDev(t)
	src, _ := dA.Canon(8, 4, arch.S0X)
	sink, _ := dA.Canon(8, 16, arch.S0F1)
	ra, err := AStar(dA, []device.Track{src}, sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dL := virtexDev(t)
	rl, err := Lee(dL, []device.Track{src}, sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Explored < ra.Explored {
		t.Errorf("Lee explored %d < A* %d on a long route", rl.Explored, ra.Explored)
	}
	apply(t, dA, ra)
	apply(t, dL, rl)
}

func TestAStarRespectsSinkInUse(t *testing.T) {
	d := virtexDev(t)
	if err := d.SetPIP(5, 5, arch.S0X, arch.S0F1); err != nil {
		t.Fatal(err)
	}
	src, _ := d.Canon(4, 4, arch.S0X)
	sink, _ := d.Canon(5, 5, arch.S0F1)
	if _, err := AStar(d, []device.Track{src}, sink, Options{}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("driven sink: %v", err)
	}
}

func TestAStarMaxNodes(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(0, 0, arch.S0X)
	sink, _ := d.Canon(15, 23, arch.S0F1)
	if _, err := AStar(d, []device.Track{src}, sink, Options{MaxNodes: 2}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("MaxNodes cap: %v", err)
	}
}

func TestAStarMultiSourceReuse(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(2, 2, arch.S0X)
	sinkA, _ := d.Canon(10, 18, arch.S0F1)
	first, err := AStar(d, []device.Track{src}, sinkA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, d, first)
	// Collect the net's tracks as reuse sources.
	sources := []device.Track{src}
	for _, p := range first.PIPs {
		tr, _ := d.Canon(p.Row, p.Col, p.To)
		if k := d.A.ClassOf(tr.W).Kind; k != arch.KindInput && k != arch.KindCtrl {
			sources = append(sources, tr)
		}
	}
	// A sink adjacent to the far end of the net should cost far less
	// from the net than from the original source alone.
	sinkB, _ := d.Canon(10, 17, arch.S0F1)
	reuse, err := AStar(d, sources, sinkB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AStar(d, []device.Track{src}, sinkB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reuse.Cost >= fresh.Cost {
		t.Errorf("reuse cost %d not cheaper than fresh cost %d", reuse.Cost, fresh.Cost)
	}
	apply(t, d, reuse)
	if root := chainRoot(d, sinkB); root != src {
		t.Errorf("reused branch roots at %v, want %v", root, src)
	}
}

func TestLongLineOptionFilter(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(6, 0, arch.S0X)
	sink, _ := d.Canon(6, 23, arch.S0F1)
	r, err := AStar(d, []device.Track{src}, sink, Options{UseLongLines: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.PIPs {
		k := d.A.ClassOf(p.To).Kind
		if k == arch.KindLongH || k == arch.KindLongV {
			t.Fatalf("long line used with UseLongLines=false: %s", d.PIPString(p))
		}
	}
	// With longs enabled the same span must still route.
	d2 := virtexDev(t)
	if _, err := AStar(d2, []device.Track{src}, sink, Options{UseLongLines: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateTemplates(t *testing.T) {
	a := arch.NewVirtex()
	src := device.Track{Row: 5, Col: 7, W: arch.S1YQ}
	var s, s2 Scratch

	// Same tile: FEEDBACK first.
	ts := s.Candidates(a, src, device.Coord{Row: 5, Col: 7}, arch.S0F1, Options{})
	if len(ts) == 0 || len(ts[0]) != 1 || ts[0][0] != arch.TVFeedback {
		t.Errorf("same-tile candidates start with %v", ts)
	}
	// East neighbour: DIRECT first.
	ts = s.Candidates(a, src, device.Coord{Row: 5, Col: 8}, arch.S0F1, Options{})
	if len(ts) == 0 || len(ts[0]) != 1 || ts[0][0] != arch.TVDirect {
		t.Errorf("east-neighbour candidates start with %v", ts)
	}
	// Displacement (+1, +7): 1 hex east + 1 single east + 1 single north.
	ts = s.Candidates(a, src, device.Coord{Row: 6, Col: 14}, arch.S0F3, Options{})
	if len(ts) == 0 {
		t.Fatal("no candidates")
	}
	first := ts[0]
	want := []arch.TemplateValue{arch.TVOutMux, arch.TVEast6, arch.TVEast1, arch.TVNorth1, arch.TVClbIn}
	if len(first) != len(want) {
		t.Fatalf("first candidate %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("first candidate %v, want %v", first, want)
		}
	}
	// All candidates start with OUTMUX and end with CLBIN.
	for _, c := range ts {
		if c[0] != arch.TVOutMux && c[0] != arch.TVFeedback && c[0] != arch.TVDirect {
			t.Errorf("candidate starts with %v", c[0])
		}
		if last := c[len(c)-1]; last != arch.TVClbIn && last != arch.TVFeedback && last != arch.TVDirect {
			t.Errorf("candidate ends with %v", last)
		}
	}
	// Long variants appear only with the option, aligned access columns,
	// and a large span.
	srcAligned := device.Track{Row: 6, Col: 0, W: arch.S0X}
	with := s.Candidates(a, srcAligned, device.Coord{Row: 6, Col: 18}, arch.S0F1, Options{UseLongLines: true})
	without := s2.Candidates(a, srcAligned, device.Coord{Row: 6, Col: 18}, arch.S0F1, Options{})
	hasLong := func(ts [][]arch.TemplateValue) bool {
		for _, c := range ts {
			for _, v := range c {
				if v == arch.TVLongH || v == arch.TVLongV {
					return true
				}
			}
		}
		return false
	}
	if !hasLong(with) {
		t.Error("no long candidate with UseLongLines")
	}
	if hasLong(without) {
		t.Error("long candidate without UseLongLines")
	}
}

// TestCandidateTemplatesRoutable: the first workable candidate must
// actually route on an empty device for a spread of displacements.
func TestCandidateTemplatesRoutable(t *testing.T) {
	for _, c := range []struct{ sr, sc, tr, tc int }{
		{5, 7, 6, 8}, {2, 2, 2, 10}, {12, 20, 3, 4}, {8, 8, 8, 8},
		{0, 0, 15, 23}, {10, 3, 4, 3}, {3, 10, 3, 4},
	} {
		d := virtexDev(t)
		src, _ := d.Canon(c.sr, c.sc, arch.S0X)
		var s Scratch
		ts := s.Candidates(d.A, src, device.Coord{Row: c.tr, Col: c.tc}, arch.S0F1, Options{})
		ok := false
		for _, tmpl := range ts {
			if _, err := TemplateRoute(d, src, arch.S0F1, tmpl); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("(%d,%d)->(%d,%d): no candidate template routes", c.sr, c.sc, c.tr, c.tc)
		}
	}
}

func TestSearchTrivialCases(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(5, 5, arch.S0X)
	// Sink equal to a source: empty route.
	r, err := AStar(d, []device.Track{src}, src, Options{})
	if err != nil || len(r.PIPs) != 0 {
		t.Errorf("self route = %v, %v", r, err)
	}
	sink, _ := d.Canon(5, 5, arch.S0F1)
	if _, err := AStar(d, nil, sink, Options{}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("no sources: %v", err)
	}
}
