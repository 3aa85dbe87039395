package device

import (
	"testing"

	"repro/internal/arch"
)

// The device layer must be fully architecture-generic (§5). These tests
// repeat the canonicalization and legality checks on the Kestrel fabric
// (16 singles/dir, 8 quad-length lines/dir all bidirectional, 8 longs,
// period-4 access).

func kestrelDev(t testing.TB) *Device {
	t.Helper()
	d, err := New(arch.NewKestrel(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKestrelCanonAliases(t *testing.T) {
	d := kestrelDev(t)
	a := d.A
	// Quad-length (HexLen=4) aliasing: HexEast[i]@(r,c) == HexWest[i]@(r,c+4).
	e, err := d.Canon(3, 2, a.Hex(arch.East, 5))
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Canon(3, 6, a.Hex(arch.West, 5))
	if err != nil {
		t.Fatal(err)
	}
	if e != w {
		t.Errorf("quad aliasing: %v vs %v", e, w)
	}
	// Midpoint at +2.
	mid, err := d.Canon(3, 4, a.HexMid(arch.East, 5))
	if err != nil {
		t.Fatal(err)
	}
	if mid != e {
		t.Errorf("quad mid aliasing: %v vs %v", mid, e)
	}
	// Singles still span one tile.
	s1, _ := d.Canon(3, 2, a.Single(arch.North, 7))
	s2, _ := d.Canon(4, 2, a.Single(arch.South, 7))
	if s1 != s2 {
		t.Errorf("single aliasing: %v vs %v", s1, s2)
	}
}

func TestKestrelAllHexesBidirectional(t *testing.T) {
	d := kestrelDev(t)
	a := d.A
	// BidiHexPeriod 1: every quad drivable at its far end.
	for i := 0; i < a.HexesPerDir; i++ {
		tr, err := d.Canon(5, 6, a.Hex(arch.West, i)) // canonical east quad at (5,2)
		if err != nil {
			t.Fatal(err)
		}
		if !d.DriveAllowedAt(tr, Coord{5, 6}) {
			t.Errorf("quad %d not drivable at far end", i)
		}
	}
}

func TestKestrelLongAccessPeriod(t *testing.T) {
	d := kestrelDev(t)
	a := d.A
	long, _ := d.Canon(3, 0, a.LongH(2))
	taps := d.AppendTaps(nil, long)
	if len(taps) != 4 { // cols 0, 4, 8, 12 on a 16-wide device
		t.Errorf("long taps = %v", taps)
	}
	for _, tp := range taps {
		if tp.Col%4 != 0 {
			t.Errorf("long tap at non-access column %v", tp)
		}
	}
	if d.DriveAllowedAt(long, Coord{3, 5}) {
		t.Error("long drivable at non-access tile")
	}
}

func TestKestrelPIPRoundTrip(t *testing.T) {
	d := kestrelDev(t)
	a := d.A
	pips := []PIP{
		{5, 5, arch.S0X, arch.Out(0)},
		{5, 5, arch.Out(0), a.Single(arch.East, 0)},
		{5, 6, a.Single(arch.West, 0), a.Single(arch.North, 1)},
		{6, 6, a.Single(arch.South, 1), arch.S0F2},
	}
	for _, p := range pips {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("%s: %v", d.PIPString(p), err)
		}
	}
	// Bitstream transfer preserves state on the second architecture too.
	stream, err := d.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	d2 := kestrelDev(t)
	if err := d2.ApplyConfig(stream); err != nil {
		t.Fatal(err)
	}
	for _, p := range pips {
		if !d2.PIPIsOn(p.Row, p.Col, p.From, p.To) {
			t.Errorf("PIP %s lost in transfer", d2.PIPString(p))
		}
	}
	// Cross-architecture streams are rejected.
	dv := virtexDev(t)
	if err := dv.ApplyConfig(stream); err == nil {
		t.Error("kestrel stream accepted by virtex-sized device")
	}
}

// TestCanonTapNameConsistency is the cross-architecture property, checked
// at every tile of two geometries, edges included. Every canonical track
// resolves back to itself from its local name at each of its taps.
// Conversely, every (tile, wire) that CanonOK accepts is the name its
// track's shape gives it at that tile, and the track is its own canonical
// form. No tap names a global clock or a long line, so those are checked by
// their own rule.
func TestCanonTapNameConsistency(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		for _, size := range []Coord{{16, 24}, {13, 19}} {
			d, err := New(a, size.Row, size.Col)
			if err != nil {
				t.Fatal(err)
			}
			for row := range d.Rows {
				for col := range d.Cols {
					for w := range arch.Wire(a.WireCount()) {
						checkCanonAt(t, d, Coord{row, col}, w)
					}
				}
			}
		}
	}
}

// checkCanonAt checks both directions of the canon property for the name w
// at tile at.
func checkCanonAt(t *testing.T, d *Device, at Coord, w arch.Wire) {
	t.Helper()
	a := d.A
	tr, ok := d.CanonOK(at.Row, at.Col, w)
	if !ok {
		return
	}
	var named bool
	switch a.ClassOf(w).Kind {
	case arch.KindGClk:
		named = tr == Track{0, 0, w}
	case arch.KindLongH:
		named = tr == Track{at.Row, 0, w}
	case arch.KindLongV:
		named = tr == Track{0, at.Col, w}
	default:
		named = d.LocalName(tr, at) == w
	}
	if !named {
		t.Fatalf("%s %dx%d: %s at %v resolves to %v, whose shape does not name it there",
			a.Name, d.Rows, d.Cols, a.WireName(w), at, tr)
	}
	if back, ok := d.CanonOK(tr.Row, tr.Col, tr.W); !ok || back != tr {
		t.Fatalf("%s %dx%d: %v is not canonical (%v, %v)", a.Name, d.Rows, d.Cols, tr, back, ok)
	}
	if tr != (Track{at.Row, at.Col, w}) {
		return
	}
	for _, tap := range d.AppendTaps(nil, tr) {
		name := d.LocalName(tr, tap)
		if name == arch.Invalid {
			t.Fatalf("%s %dx%d: track %v has no name at tap %v", a.Name, d.Rows, d.Cols, tr, tap)
		}
		back, err := d.Canon(tap.Row, tap.Col, name)
		if err != nil {
			t.Fatalf("%s %dx%d: Canon(%v, %s): %v", a.Name, d.Rows, d.Cols, tap, a.WireName(name), err)
		}
		if back != tr {
			t.Fatalf("%s %dx%d: tap %v name %s resolves to %v, want %v",
				a.Name, d.Rows, d.Cols, tap, a.WireName(name), back, tr)
		}
	}
}
