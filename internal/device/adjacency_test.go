package device

import (
	"testing"

	"repro/internal/arch"
)

// TestTrackIndexBoundsAndUniqueness: the index space is one slot per
// canonical wire name per tile, every canonical track maps into
// [0, NumTracks) and back through TrackAt, and no two canonical tracks
// collide — the property the maze arena's dense scratch tables depend on.
// An alias name has no index of its own.
func TestTrackIndexBoundsAndUniqueness(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, err := New(a, 12, 16)
		if err != nil {
			t.Fatal(err)
		}
		slots := 0
		for w := 0; w < a.WireCount(); w++ {
			if a.IsCanonicalWire(arch.Wire(w)) {
				slots++
			}
		}
		n := d.NumTracks()
		if n != 12*16*slots {
			t.Fatalf("%s: NumTracks = %d, want %d", a.Name, n, 12*16*slots)
		}
		seen := make(map[int32]Track)
		for row := 0; row < d.Rows; row++ {
			for col := 0; col < d.Cols; col++ {
				for w := 0; w < a.WireCount(); w++ {
					tr := Track{Row: row, Col: col, W: arch.Wire(w)}
					if _, ok := d.index(tr); ok != a.IsCanonicalWire(tr.W) {
						t.Fatalf("%s: index(%v %s) ok = %v", a.Name, tr, a.WireName(tr.W), ok)
					}
					// Count each physical track once, at its canonical name.
					if c, ok := d.CanonOK(row, col, tr.W); !ok || c != tr {
						continue
					}
					idx := d.TrackIndex(tr)
					if idx < 0 || int(idx) >= n {
						t.Fatalf("%s: TrackIndex(%v) = %d out of [0,%d)", a.Name, tr, idx, n)
					}
					if back := d.TrackAt(idx); back != tr {
						t.Fatalf("%s: TrackAt(TrackIndex(%v)) = %v", a.Name, tr, back)
					}
					if prev, dup := seen[idx]; dup {
						t.Fatalf("%s: tracks %v and %v share index %d", a.Name, prev, tr, idx)
					}
					seen[idx] = tr
				}
			}
		}
		if len(seen) == 0 {
			t.Fatalf("%s: no canonical tracks enumerated", a.Name)
		}
	}
}

// PIPChoicesFrom widens the edges of track t (see EdgesAt) to PIPs, for the
// tests that want some legal PIP to turn on.
func (d *Device) PIPChoicesFrom(t Track) []PIP {
	var out []PIP
	edges, at := d.Edges(t)
	for _, e := range edges {
		out = append(out, e.PIP(at))
	}
	return out
}

// refChoice is one expansion in the wide form the adjacency held before it
// became compact edges.
type refChoice struct {
	P      PIP
	Target Track
	TIdx   int32
	Kind   arch.Kind
}

// refPIPChoices is the reference derivation, independent of the chunk
// builder: walk AppendTaps/LocalName/LocalFanout/DriveAllowedAt for one track.
func refPIPChoices(d *Device, t Track) []refChoice {
	var out []refChoice
	for _, tap := range d.AppendTaps(nil, t) {
		f := d.LocalName(t, tap)
		if f == arch.Invalid {
			continue
		}
		for _, toW := range d.A.LocalFanout(f) {
			to, ok := d.CanonOK(tap.Row, tap.Col, toW)
			if !ok || !d.DriveAllowedAt(to, tap) {
				continue
			}
			out = append(out, refChoice{
				P:      PIP{tap.Row, tap.Col, f, toW},
				Target: to,
				TIdx:   d.TrackIndex(to),
				Kind:   d.A.ClassOf(to.W).Kind,
			})
		}
	}
	return out
}

// checkTileEdges compares the decoded compact adjacency of every track
// canonical at a tile with the reference, element for element and in order
// (the order is what search tie-breaking, and so every route, hangs on),
// and requires that a wire number not canonical there has no edges.
func checkTileEdges(t *testing.T, d *Device, row, col int) (tracks, edges int) {
	t.Helper()
	for w := 0; w < d.A.WireCount(); w++ {
		tr := Track{Row: row, Col: col, W: arch.Wire(w)}
		got, at := d.Edges(tr)
		if c, ok := d.CanonOK(row, col, tr.W); !ok || c != tr {
			if len(got) != 0 {
				t.Fatalf("%v is not canonical but has %d edges", tr, len(got))
			}
			continue
		}
		want := refPIPChoices(d, tr)
		if len(got) != len(want) {
			t.Fatalf("%v: %d edges, %d derived", tr, len(got), len(want))
		}
		for i, e := range got {
			dec := refChoice{P: e.PIP(at), Target: e.Target(at), TIdx: d.TrackIndex(e.Target(at)), Kind: e.Kind}
			if dec != want[i] {
				t.Fatalf("%v edge %d: decoded %+v, derived %+v", tr, i, dec, want[i])
			}
			if d.TrackAt(dec.TIdx) != dec.Target {
				t.Fatalf("%v edge %d: TrackAt(%d) = %v, want %v", tr, i, dec.TIdx, d.TrackAt(dec.TIdx), dec.Target)
			}
		}
		if again, _ := d.EdgesAt(d.TrackIndex(tr)); len(again) > 0 && &again[0] != &got[0] {
			t.Fatalf("%v: a second read returned a different slice", tr)
		}
		tracks++
		edges += len(got)
	}
	return tracks, edges
}

// TestPIPChoicesMatchDirectDerivation: the compact per-tile adjacency must
// decode to exactly what walking AppendTaps/LocalName/LocalFanout/DriveAllowedAt
// produces — every canonical track of the small arrays of both
// architectures, and on the 64x96 array the tiles where the rules have
// edges: boundary rows and columns (IOBs, wires that would leave the
// array), BRAM columns, long-line access columns and their neighbours.
func TestPIPChoicesMatchDirectDerivation(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, err := New(a, 16, 24)
		if err != nil {
			t.Fatal(err)
		}
		tracks, maxDeg := 0, 0
		for row := 0; row < d.Rows; row++ {
			for col := 0; col < d.Cols; col++ {
				n, _ := checkTileEdges(t, d, row, col)
				tracks += n
			}
		}
		for i := int32(0); int(i) < d.NumTracks(); i++ {
			if edges, _ := d.EdgesAt(i); len(edges) > maxDeg {
				maxDeg = len(edges)
			}
		}
		if tracks == 0 || maxDeg == 0 {
			t.Fatalf("%s: %d tracks checked, max degree %d", a.Name, tracks, maxDeg)
		}
	}

	if testing.Short() {
		return
	}
	a := arch.NewVirtex()
	d, err := New(a, 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 1, a.HexLen - 1, a.HexLen, 31, d.Rows - a.HexLen - 1, d.Rows - 2, d.Rows - 1}
	var cols []int
	for col := 0; col < d.Cols; col++ {
		edge := col < a.HexLen+1 || col >= d.Cols-a.HexLen-1
		if edge || a.BRAMColumn(col) || col%a.LongAccessPeriod == 0 {
			cols = append(cols, col)
		}
	}
	for _, row := range rows {
		for col := 0; col < d.Cols; col++ {
			checkTileEdges(t, d, row, col)
		}
	}
	for _, col := range cols {
		for row := 0; row < d.Rows; row += 5 {
			checkTileEdges(t, d, row, col)
		}
	}
}

// TestPIPChoicesSharedAcrossDevices: two devices of the same architecture
// parameters and array size share one adjacency cache; a different size gets
// its own.
func TestPIPChoicesSharedAcrossDevices(t *testing.T) {
	d1, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d1.adjc != d2.adjc {
		t.Error("same geometry does not share the adjacency cache")
	}
	d3, err := New(arch.NewVirtex(), 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d1.adjc == d3.adjc {
		t.Error("different geometry shares the adjacency cache")
	}
	// Cached choices are independent of device routing state: turning a PIP
	// on must not change the architecture-legal adjacency.
	tr, err := d1.Canon(4, 4, arch.S0X)
	if err != nil {
		t.Fatal(err)
	}
	before := d1.PIPChoicesFrom(tr)
	ch := before[0]
	if err := d1.SetPIP(ch.Row, ch.Col, ch.From, ch.To); err != nil {
		t.Fatal(err)
	}
	if after := d1.PIPChoicesFrom(tr); len(after) != len(before) {
		t.Errorf("routing state changed adjacency: %d -> %d", len(before), len(after))
	}
}

// TestAppendVariantsMatchCopying: the append-into-buffer accessors must
// agree with their allocating counterparts.
func TestAppendVariantsMatchCopying(t *testing.T) {
	d, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Drive two hops from a CLB output along architecture-legal PIPs.
	src, err := d.Canon(2, 2, arch.S0X)
	if err != nil {
		t.Fatal(err)
	}
	hop1 := d.PIPChoicesFrom(src)[0]
	if err := d.SetPIP(hop1.Row, hop1.Col, hop1.From, hop1.To); err != nil {
		t.Fatal(err)
	}
	mid, err := d.Canon(hop1.Row, hop1.Col, hop1.To)
	if err != nil {
		t.Fatal(err)
	}
	hop2 := d.PIPChoicesFrom(mid)[0]
	if err := d.SetPIP(hop2.Row, hop2.Col, hop2.From, hop2.To); err != nil {
		t.Fatal(err)
	}
	if got, want := d.AppendFanoutOf(nil, src), d.FanoutOf(src); len(got) != len(want) {
		t.Errorf("AppendFanoutOf %d PIPs, FanoutOf %d", len(got), len(want))
	}
	if d.FanoutCount(src) != len(d.FanoutOf(src)) {
		t.Errorf("FanoutCount %d != len(FanoutOf) %d", d.FanoutCount(src), len(d.FanoutOf(src)))
	}
	all := d.AllOnPIPs()
	appended := d.AppendAllOnPIPs(nil)
	if len(all) != len(appended) {
		t.Errorf("AppendAllOnPIPs %d PIPs, AllOnPIPs %d", len(appended), len(all))
	}
	// Appending after existing elements preserves the prefix.
	pre := []PIP{{Row: 9, Col: 9}}
	out := d.AppendAllOnPIPs(pre)
	if len(out) != 1+len(all) || out[0] != (PIP{Row: 9, Col: 9}) {
		t.Error("AppendAllOnPIPs clobbered the caller prefix")
	}
}
