package device

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// refTrackSpan is TrackSpan as it was computed before it stopped building
// the tap list: the bounding box of AppendTaps, long lines spanning their whole
// row or column.
func refTrackSpan(d *Device, t Track) (r0, c0, r1, c1 int, ok bool) {
	switch d.A.ClassOf(t.W).Kind {
	case arch.KindLongH:
		return t.Row, 0, t.Row, d.Cols - 1, true
	case arch.KindLongV:
		return 0, t.Col, d.Rows - 1, t.Col, true
	}
	taps := d.AppendTaps(nil, t)
	if len(taps) == 0 {
		return 0, 0, 0, 0, false
	}
	r0, c0 = taps[0].Row, taps[0].Col
	r1, c1 = r0, c0
	for _, tp := range taps[1:] {
		r0, r1 = min(r0, tp.Row), max(r1, tp.Row)
		c0, c1 = min(c0, tp.Col), max(c1, tp.Col)
	}
	return r0, c0, r1, c1, true
}

// TestTrackSpanMatchesTaps pins the arithmetic TrackSpan to the tap list
// for every wire at every tile of a 12×12 device of each architecture —
// canonical tracks and the aliases AppendTaps also accepts.
func TestTrackSpanMatchesTaps(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		side := max(12, 2*a.HexLen)
		d, err := New(a, side, side)
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < side*side; tile++ {
			for w := 0; w < a.WireCount(); w++ {
				tr := Track{Row: tile / side, Col: tile % side, W: arch.Wire(w)}
				r0, c0, r1, c1, ok := d.TrackSpan(tr)
				w0, x0, w1, x1, wok := refTrackSpan(d, tr)
				if r0 != w0 || c0 != x0 || r1 != w1 || c1 != x1 || ok != wok {
					t.Fatalf("%s: TrackSpan(%v %s) = (%d,%d)-(%d,%d) %v, taps say (%d,%d)-(%d,%d) %v",
						a.Name, tr, a.WireName(tr.W), r0, c0, r1, c1, ok, w0, x0, w1, x1, wok)
				}
			}
		}
	}
}

// TestMinTapDistanceMatchesTaps pins MinTapDistance, the search
// heuristic's call on every frontier pop, to the minimum distance over
// AppendTaps (0 for a track with no taps) from every tile, for every wire
// at every tile of a 12×12 device of each architecture.
func TestMinTapDistanceMatchesTaps(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		side := max(12, 2*a.HexLen)
		d, err := New(a, side, side)
		if err != nil {
			t.Fatal(err)
		}
		var taps []Coord
		for tile := 0; tile < side*side; tile++ {
			for w := 0; w < a.WireCount(); w++ {
				tr := Track{Row: tile / side, Col: tile % side, W: arch.Wire(w)}
				taps = d.AppendTaps(taps[:0], tr)
				for to := 0; to < side*side; to++ {
					c := Coord{to / side, to % side}
					want := 0
					for i, tp := range taps {
						if v := absInt(tp.Row-c.Row) + absInt(tp.Col-c.Col); i == 0 || v < want {
							want = v
						}
					}
					if got := d.MinTapDistance(tr, c); got != want {
						t.Fatalf("%s: MinTapDistance(%v %s, %v) = %d, taps %v say %d",
							a.Name, tr, a.WireName(tr.W), c, got, taps, want)
					}
				}
			}
		}
	}
}

// TestSinkDistMatchesMinTapDistance: a search reads a pushed edge's tap
// distance to the sink from SinkDist's table by the edge's tile offset, and
// it must be MinTapDistance(e.Target(at), sink) exactly: for every edge of
// every tile against every sink tile of Virtex and Kestrel at 13×19, 12×16
// and the smallest array New accepts, and for every edge of 64 tiles of
// 64×96 Virtex, its corners among them, against 64 sinks. The small arrays'
// edges are where a tap falls off the array, and the table assumes none
// does. The test is one goroutine, so the race detector learns nothing
// from its 560 million checks and skips it.
func TestSinkDistMatchesMinTapDistance(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine: nothing for the race detector")
	}
	all := func(d *Device) []Coord {
		var cs []Coord
		for tile := range d.Rows * d.Cols {
			cs = append(cs, Coord{tile / d.Cols, tile % d.Cols})
		}
		return cs
	}
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		for _, g := range [][2]int{{2 * a.HexLen, 2 * a.HexLen}, {12, 16}, {13, 19}} {
			d, err := New(a, g[0], g[1])
			if err != nil {
				t.Fatal(err)
			}
			checkSinkDist(t, d, all(d), all(d))
		}
	}
	d, err := New(arch.NewVirtex(), 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tiles := []Coord{{0, 0}, {0, 95}, {63, 0}, {63, 95}}
	sinks := slices.Clone(tiles)
	for len(tiles) < 64 {
		tiles = append(tiles, Coord{rng.Intn(64), rng.Intn(96)})
		sinks = append(sinks, Coord{rng.Intn(64), rng.Intn(96)})
	}
	checkSinkDist(t, d, tiles, sinks)
}

// checkSinkDist holds SinkDist to MinTapDistance for every edge of every
// track canonical at tiles, to each of sinks.
func checkSinkDist(t *testing.T, d *Device, tiles, sinks []Coord) {
	t.Helper()
	want := make([]int32, d.NumTracks()) // by target index, 1 + MinTapDistance; 0 not yet known
	edges := 0
	for _, c := range sinks {
		clear(want)
		to := d.SinkDist(c)
		for _, at := range tiles {
			b := d.BasesAt(at)
			for s := range d.slots {
				es, _ := d.EdgesAt(b[BaseTile] + int32(s))
				for j := range es {
					e := &es[j]
					ti := e.TargetIndex(&b)
					if want[ti] == 0 {
						want[ti] = int32(1 + d.MinTapDistance(e.Target(at), c))
					}
					if got := to.Of(e, c.Row-at.Row, c.Col-at.Col); got != int(want[ti]-1) {
						t.Fatalf("%s %dx%d: edge %v at %v onto %v: SinkDist(%v) says %d, MinTapDistance %d",
							d.A.Name, d.Rows, d.Cols, *e, at, e.Target(at), c, got, want[ti]-1)
					}
					edges++
				}
			}
		}
	}
	if edges == 0 {
		t.Fatalf("%s %dx%d: no edges checked", d.A.Name, d.Rows, d.Cols)
	}
}

// growNets turns on random legal PIPs, each sourced from an output pin or
// from a track already driven, so nets grow past their first wire onto
// singles, hexes and long lines.
func growNets(d *Device, rng *rand.Rand, steps int) {
	var driven []Track
	for i := 0; i < steps; i++ {
		src, ok := d.CanonOK(rng.Intn(d.Rows), rng.Intn(d.Cols), arch.OutPin(rng.Intn(arch.NumOutPins)))
		if len(driven) > 0 && rng.Intn(3) > 0 {
			src, ok = driven[rng.Intn(len(driven))], true
		}
		if !ok {
			continue
		}
		choices := d.PIPChoicesFrom(src)
		if len(choices) == 0 {
			continue
		}
		p := choices[rng.Intn(len(choices))]
		if to, ok := d.CanonOK(p.Row, p.Col, p.To); ok && !d.InUse(to) && d.SetPIP(p.Row, p.Col, p.From, p.To) == nil {
			driven = append(driven, to)
		}
	}
}

// TestAppendTracksOver holds the page-and-occupancy scan to the definition
// it implements, read off every track of the device: driven with a span
// meeting the rectangle, or undriven, canonical inside it and sourcing an
// on-PIP. Rectangles hang over every edge; the scan allocates nothing.
func TestAppendTracksOver(t *testing.T) {
	d := virtexDev(t)
	rng := rand.New(rand.NewSource(24))
	growNets(d, rng, 4000)
	if d.OnPIPCount() < 500 {
		t.Fatalf("only %d PIPs on", d.OnPIPCount())
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The tracks in use, once: the only candidates, whatever the rectangle.
	var inUse []int32
	for i := int32(0); i < int32(d.NumTracks()); i++ {
		if d.Driven(i) || d.FanoutCount(d.TrackAt(i)) > 0 {
			inUse = append(inUse, i)
		}
	}
	kinds := map[arch.Kind]int{}
	buf := make([]Track, 0, d.OnPIPCount()*2)
	for n := 0; n < 300; n++ {
		row, col := rng.Intn(d.Rows+4)-2, rng.Intn(d.Cols+4)-2
		h, w := 1+rng.Intn(6), 1+rng.Intn(8)
		var want []int32
		for _, i := range inUse {
			tr := d.TrackAt(i)
			if d.Driven(i) {
				if r0, c0, r1, c1, ok := d.TrackSpan(tr); ok && r1 >= row && r0 < row+h && c1 >= col && c0 < col+w {
					want = append(want, i)
					kinds[d.A.ClassOf(tr.W).Kind]++
				}
			} else if tr.Row >= row && tr.Row < row+h && tr.Col >= col && tr.Col < col+w {
				want = append(want, i)
			}
		}
		var got []int32
		for _, tr := range d.AppendTracksOver(buf[:0], row, col, h, w) {
			got = append(got, d.TrackIndex(tr))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("rect (%d,%d) %dx%d: scan found tracks %v, the device holds %v", row, col, h, w, got, want)
		}
	}
	for _, k := range []arch.Kind{arch.KindSingle, arch.KindHex, arch.KindLongH, arch.KindLongV, arch.KindInput} {
		if kinds[k] == 0 {
			t.Errorf("no driven track of kind %v ever met a rectangle", k)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { buf = d.AppendTracksOver(buf[:0], 4, 6, 5, 7) }); allocs != 0 {
		t.Errorf("AppendTracksOver allocates %v times into a buffer that fits", allocs)
	}
	hex, _ := d.CanonOK(5, 7, d.A.Hex(arch.East, 2))
	if allocs := testing.AllocsPerRun(50, func() { d.TrackSpan(hex) }); allocs != 0 {
		t.Errorf("TrackSpan allocates %v times", allocs)
	}
}
