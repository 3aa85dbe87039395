package core

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/oracle"
)

// TestConnectionSize pins a record at 176 bytes, a malloc size class: the
// kind byte sits in the padding beside retired, and a field added or
// reordered past it moves every record up to the 192-byte class.
func TestConnectionSize(t *testing.T) {
	if got := unsafe.Sizeof(Connection{}); got != 176 {
		t.Errorf("Connection is %d bytes, want 176", got)
	}
}

// auditStrict audits r's board with coverage on: every net roots at a claim.
func auditStrict(t *testing.T, r *Router) []byte {
	t.Helper()
	stream, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Audit(r.Dev.A, stream, r.OracleClaims(), true); err != nil {
		t.Fatalf("strict audit: %v", err)
	}
	return stream
}

// allLevels routes one net at each manual level and a clock, as §3.1 and
// §2 describe them, on a bare router.
func allLevels(t *testing.T, r *Router) {
	t.Helper()
	a := r.Dev.A
	tmpl, err := ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{
		r.RouteClock(0, NewPin(2, 2, arch.S0CLK), NewPin(2, 3, arch.S1CLK)),
		r.Route(3, 3, arch.S0X, arch.S0F1),
		r.RoutePath(NewPath(9, 7, []arch.Wire{arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3})),
		r.RouteTemplate(NewPin(5, 7, arch.S1YQ), arch.S0F3, tmpl),
		// Already on: no second record for either.
		r.RouteClock(0, NewPin(2, 2, arch.S0CLK)),
		r.Route(3, 3, arch.S0X, arch.S0F1),
	} {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestEveryLevelLeavesARecord: the four manual/clock calls each leave one
// record, the board passes a strict audit, and the records survive export
// and adoption — a fresh router adopting the snapshot holds the same bytes,
// the same kinds of record, and passes a strict audit too.
func TestEveryLevelLeavesARecord(t *testing.T) {
	r := newTestRouter(t, Options{})
	allLevels(t, r)
	kinds := map[recKind]int{}
	for _, c := range r.Connections() {
		kinds[c.kind]++
	}
	if kinds[clockRec] != 1 || kinds[manualRec] != 3 || len(kinds) != 2 {
		t.Fatalf("records by kind %v, want one clock and three manual", kinds)
	}
	want := auditStrict(t, r)

	cp := newTestRouter(t, Options{})
	for _, rec := range r.SnapshotConnections() {
		if err := cp.AdoptConnection(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := auditStrict(t, cp); !bytes.Equal(got, want) {
		t.Error("the adopted copy's configuration differs from the original's")
	}
	for i, c := range cp.Connections() {
		if o := r.Connections()[i]; c.kind != o.kind || render(c) != render(o) {
			t.Errorf("record %d adopted as %s (kind %d), was %s (kind %d)", i, render(c), c.kind, render(o), o.kind)
		}
	}
}

// TestManualExtensionGoesWithNet pins who owns a level-1 PIP that extends a
// live net: the call's own record, filed under the net's source endpoint.
// Unrouting the net — here by its port — takes the extension too, and port
// memory files both records, so Reconnect brings both back.
func TestManualExtensionGoesWithNet(t *testing.T) {
	r := newTestRouter(t, Options{})
	port := NewGroup("g").NewPort("q", Out)
	if err := port.Bind(NewPin(3, 14, arch.S1YQ)); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(port, NewPin(5, 18, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	// S1YQ's feedback onto its own CLB: a PIP off the net's source track.
	if err := r.Route(3, 14, arch.S1YQ, arch.S1F4); err != nil {
		t.Fatal(err)
	}
	cs := r.Connections()
	if len(cs) != 2 || cs[1].Source != EndPoint(port) || cs[1].kind != manualRec {
		t.Fatalf("records after the extension: %v", renderAll(cs))
	}
	auditStrict(t, r)
	if err := r.Unroute(port); err != nil {
		t.Fatal(err)
	}
	if n, pips := r.ConnectionCount(), r.Dev.OnPIPCount(); n != 0 || pips != 0 {
		t.Fatalf("after unrouting the net: %d records, %d PIPs on", n, pips)
	}
	if mem := r.RememberedConnections(port); len(mem) != 2 {
		t.Fatalf("port remembers %d records, want the net and its extension", len(mem))
	}
	if err := r.Reconnect(port); err != nil {
		t.Fatal(err)
	}
	if !r.IsOn(3, 14, arch.S1F4) || r.ConnectionCount() != 2 {
		t.Errorf("Reconnect: extension on=%v, %d records", r.IsOn(3, 14, arch.S1F4), r.ConnectionCount())
	}
	auditStrict(t, r)
}

// TestRipUpRegionClockByTap: two cores' clocks share one global net. A
// region over one core's taps retires that core's clock record alone and
// clears only its taps; RestoreConnection puts them back.
func TestRipUpRegionClockByTap(t *testing.T) {
	r := newTestRouter(t, Options{})
	a := []EndPoint{NewPin(4, 4, arch.S0CLK), NewPin(4, 4, arch.S1CLK)}
	b := []EndPoint{NewPin(10, 12, arch.S0CLK), NewPin(11, 12, arch.S0CLK)}
	for _, taps := range [][]EndPoint{a, b} {
		if err := r.RouteClock(1, taps...); err != nil {
			t.Fatal(err)
		}
	}
	ripped, err := r.RipUpRegion(3, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ripped) != 1 || !slices.EqualFunc(ripped[0].Sinks, a, endPointEqual) {
		t.Fatalf("ripped %v, want core a's clock record alone", renderAll(ripped))
	}
	if r.IsOn(4, 4, arch.S0CLK) || !r.IsOn(10, 12, arch.S0CLK) || r.ConnectionCount() != 1 {
		t.Fatalf("after the rip: a's tap on=%v, b's tap on=%v, %d records",
			r.IsOn(4, 4, arch.S0CLK), r.IsOn(10, 12, arch.S0CLK), r.ConnectionCount())
	}
	auditStrict(t, r)
	if err := r.RestoreConnection(ripped[0]); err != nil {
		t.Fatal(err)
	}
	if !r.IsOn(4, 4, arch.S1CLK) || r.ConnectionCount() != 2 {
		t.Errorf("restore: a's tap on=%v, %d records", r.IsOn(4, 4, arch.S1CLK), r.ConnectionCount())
	}
	auditStrict(t, r)
}
