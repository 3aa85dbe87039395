package core

import (
	"bytes"
	"errors"
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

	// A cold router searching under WithoutReplay produces the same bytes
	// for the same endpoints: replay never changes what gets configured.
	rOff := newTestRouter(t, Options{})
	if err := rOff.WithoutReplay(func() error { return rOff.RouteFanout(src, sinks) }); err != nil {
		t.Fatal(err)
	}
	offCfg, err := rOff.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, offCfg) {
		t.Error("replaying router's cold route differs from a search-only route of the same endpoints")
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

// TestWithoutReplay: inside the scope no route memory is consulted and none
// is learned — every route searches and no cache counter moves — while port
// memory is untouched: records still snapshot their paths and
// RestoreConnection still replays them. The scope nests and is restored on
// an error return.
func TestWithoutReplay(t *testing.T) {
	r := newTestRouter(t, Options{})
	src := NewPin(5, 5, arch.S0X)
	sink := NewPin(9, 9, arch.S0F1)
	cycle := func() error {
		if err := r.RouteNet(src, sink); err != nil {
			return err
		}
		if conns := r.Connections(); len(conns) != 1 || len(conns[0].Path) == 0 {
			t.Fatal("search-only connection lost its path memory")
		}
		return r.Unroute(src)
	}
	// Lookup suppressed: two rounds of the same endpoints, and neither the
	// exact nor the template tier is asked. Learning suppressed: the round
	// after the scope misses both tiers, so nothing was stored inside it.
	err := r.WithoutReplay(func() error {
		if err := cycle(); err != nil {
			return err
		}
		return r.WithoutReplay(cycle) // nested; must not re-enable on exit
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.searchOnly {
		t.Fatal("flag still set after the outer scope returned")
	}
	if st := r.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.ReplayFails != 0 {
		t.Fatalf("search-only scope moved cache counters: %+v", st)
	}
	if r.cache != nil {
		t.Fatalf("search-only scope learned: %d exact, %d template entries", len(r.cache.exact), len(r.cache.tmpl))
	}
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Fatalf("first replaying route after the scope: %+v, want 0 hits and 2 misses (exact, template)", st)
	}

	// An error return restores the flag, and so does an inner one.
	boom := errors.New("boom")
	if err := r.WithoutReplay(func() error {
		if err := r.WithoutReplay(func() error { return boom }); err != boom {
			t.Fatalf("inner scope returned %v", err)
		}
		if !r.searchOnly {
			t.Fatal("inner error return cleared the outer scope's flag")
		}
		return boom
	}); err != boom {
		t.Fatalf("outer scope returned %v", err)
	}
	if r.searchOnly {
		t.Fatal("flag still set after an error return")
	}

	// RestoreConnection replays the record's path inside the scope: a cache
	// hit with no search, on a port-level net that Unroute remembered.
	p := NewGroup("g").NewPort("p", In)
	if err := p.Bind(sink); err != nil {
		t.Fatal(err)
	}
	src2 := NewPin(3, 3, arch.S0X)
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	err = r.WithoutReplay(func() error {
		if err := r.RouteNet(src2, p); err != nil {
			return err
		}
		if err := r.Unroute(src2); err != nil {
			return err
		}
		before := r.Stats()
		if err := r.Reconnect(p); err != nil {
			return err
		}
		after := r.Stats()
		if after.CacheHits != before.CacheHits+1 || after.NodesExplored != before.NodesExplored {
			t.Errorf("Reconnect inside the scope searched: %+v -> %+v", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertConnected(t, r, src2, sink)
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
