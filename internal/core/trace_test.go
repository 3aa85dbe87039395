package core

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestUnrouteClearsWhatTraceReturns: Unroute clears exactly the PIPs Trace
// returned, from the same walk — on a fanout net, and on a routing loop,
// where both stop at the PIP that closes it.
func TestUnrouteClearsWhatTraceReturns(t *testing.T) {
	fanout := newTestRouter(t, Options{})
	src := NewPin(5, 7, arch.S1YQ)
	sinks := []EndPoint{NewPin(6, 8, arch.S0F3), NewPin(9, 12, arch.S1G2), NewPin(3, 2, arch.S0F1)}
	if err := fanout.RouteFanout(src, sinks); err != nil {
		t.Fatal(err)
	}
	loop := newTestRouter(t, Options{})
	routeSinglesLoop(t, loop)
	for _, c := range []struct {
		name   string
		r      *Router
		source Pin
	}{
		{"fanout", fanout, src},
		{"loop", loop, NewPin(5, 5, loop.Dev.A.Single(arch.East, 0))},
	} {
		r := c.r
		net, err := r.Trace(c.source)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := r.Dev.AllOnPIPs()
		cleared := r.Stats().PIPsCleared
		// The shortest loop of singles on this array closes on its first
		// PIP, so Trace returns none and Unroute finds nothing routed.
		if err := r.Unroute(c.source); (err != nil) != (len(net.PIPs) == 0) {
			t.Fatalf("%s: Unroute after a trace of %d PIPs: %v", c.name, len(net.PIPs), err)
		}
		if !slices.Equal(r.walkPIPs, net.PIPs) {
			t.Errorf("%s: Unroute walked %v, Trace returned %v", c.name, r.walkPIPs, net.PIPs)
		}
		if n := r.Stats().PIPsCleared - cleared; n != len(net.PIPs) {
			t.Errorf("%s: Unroute cleared %d PIPs, Trace returned %d", c.name, n, len(net.PIPs))
		}
		after := r.Dev.AllOnPIPs()
		gone := slices.DeleteFunc(before, func(p device.PIP) bool { return slices.Contains(after, p) })
		if len(gone) != len(net.PIPs) || slices.ContainsFunc(gone, func(p device.PIP) bool { return !slices.Contains(net.PIPs, p) }) {
			t.Errorf("%s: Unroute turned off %v, Trace returned %v", c.name, gone, net.PIPs)
		}
	}
}

// routeChain routes, PIP by PIP, a chain of n PIPs from src — n-1 onto
// routing tracks, the last onto a LUT input — and returns that pin and the
// chain.
func routeChain(t *testing.T, r *Router, src Pin, n int) (Pin, []device.PIP) {
	t.Helper()
	d := r.Dev
	start, err := d.Canon(src.Row, src.Col, src.W)
	if err != nil {
		t.Fatal(err)
	}
	var path []device.PIP
	seen := map[device.Track]bool{start: true}
	var extend func(at device.Track) bool
	extend = func(at device.Track) bool {
		edges, tap := d.Edges(at)
		for _, e := range edges {
			to := e.Target(tap)
			last := len(path) == n-1
			kind := d.A.ClassOf(to.W).Kind
			if seen[to] || d.Driven(d.TrackIndex(to)) || last != (kind == arch.KindInput) || kind.IsSink() != last {
				continue
			}
			seen[to] = true
			path = append(path, e.PIP(tap))
			if last || extend(to) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !extend(start) {
		t.Fatalf("no chain of %d PIPs from %v", n, src)
	}
	for _, p := range path {
		if err := r.Route(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("chain PIP %s: %v", d.PIPString(p), err)
		}
	}
	last := path[len(path)-1]
	return NewPin(last.Row, last.Col, last.To), path
}

// allocsPerRun is testing.AllocsPerRun with the collector off, so that no
// collection empties a pool mid-count.
func allocsPerRun(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(50, f)
}

// TestTraceAllocatesWhatItReturns: Trace walks in router scratch and
// allocates only the net it returns — the Net, its PIPs and its sinks —
// however long the net is.
func TestTraceAllocatesWhatItReturns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	for _, n := range []int{8, 40} {
		r := newTestRouter(t, Options{})
		pin := NewPin(5, 7, arch.S1YQ)
		routeChain(t, r, pin, n)
		var src EndPoint = pin // boxed once, outside the count
		var net *Net
		got := allocsPerRun(func() { net, _ = r.Trace(src) })
		if len(net.PIPs) != n || len(net.Sinks) != 1 {
			t.Fatalf("%d-hop chain: traced %d PIPs and %d sinks", n, len(net.PIPs), len(net.Sinks))
		}
		if got != 3 {
			t.Errorf("Trace of a %d-hop chain allocates %v objects, want 3", n, got)
		}
	}
}

// TestRouteUnrouteCycleAllocationsDoNotGrow: a warm route → unroute cycle
// of one pin-to-pin net, replayed from the exact route cache, allocates the
// same at 8 hops as at 40.
func TestRouteUnrouteCycleAllocationsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	cycle := func(n int) float64 {
		r := newTestRouter(t, Options{})
		src := NewPin(5, 7, arch.S1YQ)
		sink, path := routeChain(t, r, src, n)
		if err := r.Unroute(src); err != nil {
			t.Fatal(err)
		}
		r.LearnPaths([]SeqRecord{{ConnectionRecord: ConnectionRecord{Source: src, Sinks: []Pin{sink}, Path: path, Kind: netRec}}})
		before := r.Stats()
		got := allocsPerRun(func() {
			if err := r.RouteNet(src, sink); err != nil {
				t.Fatal(err)
			}
			if err := r.Unroute(src); err != nil {
				t.Fatal(err)
			}
		})
		if d := r.Stats().Sub(before); d.CacheHits != d.Routes || d.PIPsSet != n*d.Routes {
			t.Fatalf("%d-hop cycle: %d routes, %d cache hits, %d PIPs set: not the chain replayed", n, d.Routes, d.CacheHits, d.PIPsSet)
		}
		return got
	}
	if short, long := cycle(8), cycle(40); short != long {
		t.Errorf("a route → unroute cycle allocates %v objects at 8 hops and %v at 40", short, long)
	}
}

// TestReconnectResolvesPortsInPlace: a port is read where it is bound,
// never copied. A warm unroute → Reconnect cycle of a net sourced at a
// single-pin out port (bound through a re-exporting port) allocates exactly
// what the same cycle allocates for a pin-sourced net into a single-pin in
// port: both are remembered under one port and keep the same records, and
// only the first resolves a port as its source at every step.
func TestReconnectResolvesPortsInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	g := NewGroup("g")
	inner, out, in := g.NewPort("inner", Out), g.NewPort("out", Out), g.NewPort("in", In)
	src, sink := NewPin(5, 7, arch.S1YQ), NewPin(6, 8, arch.S0F3)
	if err := inner.Bind(src); err != nil {
		t.Fatal(err)
	}
	if err := out.BindPort(inner); err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(sink); err != nil {
		t.Fatal(err)
	}
	cycle := func(source, sinkEnd EndPoint, port *Port) float64 {
		r := newTestRouter(t, Options{})
		if err := r.RouteNet(source, sinkEnd); err != nil {
			t.Fatal(err)
		}
		before := r.Stats()
		got := allocsPerRun(func() {
			if err := r.Unroute(source); err != nil {
				t.Fatal(err)
			}
			if err := r.Reconnect(port); err != nil {
				t.Fatal(err)
			}
		})
		if d := r.Stats().Sub(before); d.CacheHits != d.Routes || d.Routes == 0 {
			t.Fatalf("%v: %d routes, %d cache hits: Reconnect did not replay", port, d.Routes, d.CacheHits)
		}
		return got
	}
	if byPort, byPin := cycle(out, sink, out), cycle(src, in, in); byPort != byPin {
		t.Errorf("unroute → Reconnect allocates %v objects from an out port, %v into an in port", byPort, byPin)
	}
}

// TestExactReplayCycleBudget pins what the p2p shape allocates: a warm
// pin-to-pin route → unroute cycle whose route is an exact-cache replay.
// The cache lookup indexes its map with the key scratch in place, and the
// unroute's put re-files a key already cached without copying it: 5
// objects, the record's two (itself with its sink and sink pin, and its
// path) and the test's three boxed pins. It read 7 when a record was four
// objects, and 10 when every put copied its key and the replay allocated
// its path twice.
func TestExactReplayCycleBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 6
	r := newTestRouter(t, Options{})
	src, sink := NewPin(5, 7, arch.S1YQ), NewPin(9, 12, arch.S0F3)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatal(err)
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	got := allocsPerRun(func() {
		if err := r.RouteNet(src, sink); err != nil {
			t.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			t.Fatal(err)
		}
	})
	if d := r.Stats().Sub(before); d.Routes == 0 || d.CacheHits != d.Routes {
		t.Fatalf("%d routes, %d cache hits: not an exact replay", d.Routes, d.CacheHits)
	}
	t.Logf("a replayed route → unroute cycle allocates %v objects", got)
	if got > budget {
		t.Errorf("a replayed route → unroute cycle allocates %v objects, budget %d", got, budget)
	}
}
