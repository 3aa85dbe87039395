package core

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestExactReplayByteIdentical: churn's inner loop — route, unroute,
// route the same endpoints again. The second route must be served by path
// replay (no search) and configure byte-for-byte the same bitstream the
// cold search did.
func TestExactReplayByteIdentical(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sinks := []EndPoint{NewPin(9, 9, arch.S0F1), NewPin(3, 12, arch.S0F2)}
	if err := r.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	cold, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if err := r.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
	}
	if after.NodesExplored != before.NodesExplored {
		t.Errorf("replay explored %d nodes, want 0", after.NodesExplored-before.NodesExplored)
	}
	warm, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("replayed route differs from cold-search bitstream")
	}
	for _, s := range sinks {
		assertConnected(t, r, src, s.Pins()[0])
	}

}

// TestTemplateTierRelocation: a single-sink route learned at one position
// replays at a different absolute position with the same (Δrow, Δcol, wire
// class) shape — the §3.1 level-3 template, discovered rather than
// hand-written.
func TestTemplateTierRelocation(t *testing.T) {
	r := newTestRouter(t, Options{})
	routeAt := func(row, col int) {
		t.Helper()
		src := NewPin(row, col, arch.OutPin(0))
		sink := NewPin(row+2, col+5, arch.Input(1))
		if err := r.RouteNet(src, sink); err != nil {
			t.Fatal(err)
		}
		assertConnected(t, r, src, sink)
	}
	routeAt(3, 3)
	before := r.Stats()
	routeAt(9, 12)
	after := r.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("relocated shape not replayed: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	if after.NodesExplored != before.NodesExplored {
		t.Errorf("relocated replay explored %d nodes, want 0", after.NodesExplored-before.NodesExplored)
	}
}

// TestReplayFallbackWhenPathTaken: a remembered path whose resources were
// taken by someone else fails its legality sweep, counts a replay failure,
// and falls back to a clean search — the stale entry can never corrupt
// routing state.
func TestReplayFallbackWhenPathTaken(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sink := NewPin(9, 12, arch.S0F1)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	conns := r.Connections()
	if len(conns) != 1 || len(conns[0].Path) < 3 {
		t.Fatalf("connection record missing its path: %+v", conns)
	}
	path := append([]device.PIP(nil), conns[0].Path...)
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	// Steal a mid-path wire: drive it so the remembered path is illegal.
	mid := path[len(path)/2]
	if err := r.Dev.SetPIP(mid.Row, mid.Col, mid.From, mid.To); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	// Both cache tiers (exact path, then relocatable template) attempt the
	// blocked path; every failed sweep counts.
	if after.ReplayFails <= before.ReplayFails {
		t.Errorf("replay fails %d -> %d, want an increase", before.ReplayFails, after.ReplayFails)
	}
	if after.CacheHits != before.CacheHits {
		t.Errorf("blocked replay counted as a hit")
	}
	if after.NodesExplored == before.NodesExplored {
		t.Error("fallback did not search")
	}
	assertConnected(t, r, src, sink)
}

// TestReverseUnrouteReconnectBranch: §3.3 at branch granularity. Reverse
// unrouting a port's branch remembers just that branch; Reconnect replays
// it against the still-live rest of the net, and after the port rebinds to
// a different pin the restore falls back to a fresh search.
func TestReverseUnrouteReconnectBranch(t *testing.T) {
	r := newTestRouter(t, Options{})
	g := NewGroup("g")
	in := g.NewPort("d", In)
	if err := in.Bind(NewPin(9, 9, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	other := NewPin(9, 11, arch.S1F1)
	src := NewPin(5, 5, arch.S0X)
	if err := r.RouteFanout(src, []EndPoint{in, other}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReverseUnroute(in); err != nil {
		t.Fatal(err)
	}
	if n := len(r.RememberedConnections(in)); n != 1 {
		t.Fatalf("remembered %d connections, want 1", n)
	}
	// The rest of the net survives the branch removal.
	assertConnected(t, r, src, other)

	before := r.Stats()
	if err := r.Reconnect(in); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("branch restore not replayed: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	assertConnected(t, r, src, NewPin(9, 9, arch.S0F1))
	if n := len(r.RememberedConnections(in)); n != 0 {
		t.Errorf("%d remembered connections survive reconnect", n)
	}

	// Rebind the port elsewhere: the source stayed put, so the shift is
	// non-uniform and no replay applies — restore must search cleanly.
	if err := r.ReverseUnroute(in); err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(NewPin(11, 7, arch.S0F2)); err != nil {
		t.Fatal(err)
	}
	mid := r.Stats()
	if err := r.Reconnect(in); err != nil {
		t.Fatal(err)
	}
	end := r.Stats()
	if end.ReplayFails != mid.ReplayFails {
		t.Errorf("non-uniform rebind counted as replay failure")
	}
	assertConnected(t, r, src, NewPin(11, 7, arch.S0F2))
}

// TestRipUpRegion: only nets whose endpoints or routed path intersect the
// rectangle are ripped; RestoreConnection replays them afterwards.
func TestRipUpRegion(t *testing.T) {
	r := newTestRouter(t, Options{})
	aSrc, aSink := NewPin(7, 7, arch.S0X), NewPin(8, 9, arch.S0F1)  // inside
	bSrc, bSink := NewPin(7, 2, arch.S1X), NewPin(7, 20, arch.S1F1) // crosses
	cSrc, cSink := NewPin(2, 2, arch.S0Y), NewPin(3, 4, arch.S0F2)  // outside
	for _, n := range []struct{ s, k Pin }{{aSrc, aSink}, {bSrc, bSink}, {cSrc, cSink}} {
		if err := r.RouteNet(n.s, n.k); err != nil {
			t.Fatal(err)
		}
	}
	// Rectangle rows 4..11, cols 6..11: contains net A, cuts net B's
	// west-to-east path, misses net C entirely.
	ripped, err := r.RipUpRegion(4, 6, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ripped) != 2 {
		t.Fatalf("ripped %d connections, want 2", len(ripped))
	}
	assertConnected(t, r, cSrc, cSink)
	if _, err := r.ReverseTrace(aSink); err == nil {
		t.Error("net inside region survived rip-up")
	}
	if _, err := r.ReverseTrace(bSink); err == nil {
		t.Error("net crossing region survived rip-up")
	}
	before := r.Stats()
	for _, c := range ripped {
		if err := r.RestoreConnection(c); err != nil {
			t.Fatal(err)
		}
	}
	after := r.Stats()
	if after.CacheHits != before.CacheHits+2 {
		t.Errorf("restores replayed %d paths, want 2", after.CacheHits-before.CacheHits)
	}
	assertConnected(t, r, aSrc, aSink)
	assertConnected(t, r, bSrc, bSink)
	assertConnected(t, r, cSrc, cSink)
}

// TestTimingDrivenBypassesCache: timing-driven routing optimizes delay, so
// replaying a wire-count-optimal remembered path would silently change the
// cost model; the cache must stand aside.
func TestTimingDrivenBypassesCache(t *testing.T) {
	r := newTestRouter(t, Options{TimingDriven: true})
	src := NewPin(5, 5, arch.S0X)
	sink := NewPin(9, 9, arch.S0F1)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("timing-driven router touched the cache: %+v", st)
	}
}

// TestConnectionCount: the allocation-free accessor the service's statsz
// path uses.
func TestConnectionCount(t *testing.T) {
	r := newTestRouter(t, Options{})
	if r.ConnectionCount() != 0 {
		t.Fatal("fresh router has connections")
	}
	src := NewPin(5, 5, arch.S0X)
	if err := r.RouteNet(src, NewPin(9, 9, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	if got := r.ConnectionCount(); got != 1 {
		t.Errorf("ConnectionCount = %d, want 1", got)
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	if got := r.ConnectionCount(); got != 0 {
		t.Errorf("ConnectionCount after unroute = %d, want 0", got)
	}
}
