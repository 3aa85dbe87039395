package core

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/maze"
)

// netIntrudes reports whether the net sourced at src makes a PIP inside the
// rectangle or drives a wire whose physical span crosses it.
func netIntrudes(t *testing.T, r *Router, src Pin, rect maze.Rect) bool {
	t.Helper()
	net, err := r.Trace(src)
	if err != nil {
		t.Fatalf("trace from %v: %v", src, err)
	}
	for _, p := range net.PIPs {
		if rect.Contains(p.Row, p.Col) {
			return true
		}
		tr, ok := r.Dev.CanonOK(p.Row, p.Col, p.To)
		if !ok {
			continue
		}
		if r0, c0, r1, c1, ok := r.Dev.TrackSpan(tr); ok &&
			r1 >= rect.Row && r0 < rect.Row+rect.Height &&
			c1 >= rect.Col && c0 < rect.Col+rect.Width {
			return true
		}
	}
	return false
}

// TestRipUpRegionSpanCrossing is the regression for the edge case mesh
// links surfaced: a net whose endpoints lie outside the region and whose
// PIPs are all made outside it, but whose hex wire physically spans the
// region. Such a net must be ripped and replayed, not orphaned — placing a
// core over the region would otherwise sever the wire under a net the
// router still believes is live.
func TestRipUpRegionSpanCrossing(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 2, arch.S0X)
	sink := NewPin(5, 8, arch.S0F1)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	// Region: the single tile (5,5). Verify the premise the regression
	// depends on — the route crosses the tile with a wire span but makes
	// no PIP on it (a hex covers the 6-tile gap in one hop).
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.PIPs {
		if p.Row == 5 && p.Col == 5 {
			t.Fatalf("premise broken: route made a PIP on (5,5); pick a different geometry: %v", net.PIPs)
		}
	}
	if !netIntrudes(t, r, src, maze.Rect{Row: 5, Col: 5, Height: 1, Width: 1}) {
		t.Fatalf("premise broken: route does not span (5,5): %v", net.PIPs)
	}

	ripped, err := r.RipUpRegion(5, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ripped) != 1 {
		t.Fatalf("ripped %d connections, want 1 (span-crossing net orphaned)", len(ripped))
	}
	if _, err := r.ReverseTrace(sink); err == nil {
		t.Error("span-crossing net survived rip-up")
	}
	// With the tile now reserved, the restore must detour around it.
	r.AddAvoid(5, 5, 1, 1)
	if err := r.RestoreConnection(ripped[0]); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, src, sink)
	if netIntrudes(t, r, src, maze.Rect{Row: 5, Col: 5, Height: 1, Width: 1}) {
		t.Error("restored net still intrudes on the reserved tile")
	}
	// The reservation lifts: ripped and restored once more, the detour's
	// record replays its home, the wires the net held before it detoured.
	r.RemoveAvoid(5, 5, 1, 1)
	recs, err := r.RipUpNet(src)
	if err != nil || len(recs) != 1 {
		t.Fatalf("rip-up of the detour: %v, %d records", err, len(recs))
	}
	if err := r.RestoreConnection(recs[0]); err != nil {
		t.Fatal(err)
	}
	if back, err := r.Trace(src); err != nil || !slices.Equal(back.PIPs, net.PIPs) {
		t.Errorf("net did not go home: %v, want %v (%v)", back, net.PIPs, err)
	}
}

// TestAvoidRegionDetour: with a rectangle reserved, automatic routes must
// neither PIP inside it nor drive wires spanning it — including hexes that
// would pass over it — and must still reach sinks on the far side.
func TestAvoidRegionDetour(t *testing.T) {
	r := newTestRouter(t, Options{})
	rect := maze.Rect{Row: 3, Col: 10, Height: 7, Width: 2}
	r.AddAvoid(rect.Row, rect.Col, rect.Height, rect.Width)
	src := NewPin(6, 5, arch.S0X)
	sink := NewPin(6, 15, arch.S0F1)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, src, sink)
	if netIntrudes(t, r, src, rect) {
		t.Error("route intrudes on the avoided rectangle")
	}
	if !r.RemoveAvoid(rect.Row, rect.Col, rect.Height, rect.Width) {
		t.Error("RemoveAvoid did not find the reservation")
	}
	if r.RemoveAvoid(rect.Row, rect.Col, rect.Height, rect.Width) {
		t.Error("RemoveAvoid removed a reservation twice")
	}
}

// TestAvoidVetoesReplay: a cached path learned before a reservation must
// not replay through it; the re-route takes the detour.
func TestAvoidVetoesReplay(t *testing.T) {
	r := newTestRouter(t, Options{})
	rect := maze.Rect{Row: 3, Col: 10, Height: 7, Width: 2}
	src := NewPin(6, 5, arch.S0X)
	sink := NewPin(6, 15, arch.S0F1)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	if !netIntrudes(t, r, src, rect) {
		t.Skip("direct route does not cross the rectangle; nothing to veto")
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	r.AddAvoid(rect.Row, rect.Col, rect.Height, rect.Width)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, src, sink)
	if netIntrudes(t, r, src, rect) {
		t.Error("replayed route crossed the reserved rectangle")
	}
}
