package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/maze"
)

// The allocation budgets of the router's run-time shapes on a 16×24 Virtex
// array: once its scratch is warm, an op allocates the records it keeps —
// each with its path and its sink pins — the route cache's entries and
// what the negotiation returns, and nothing it drops. Each budget is the
// count it reads plus room for a stray runtime object; the replay, the
// template tier and the port memory each cost several objects an op when
// they allocated their working memory per call.

// TestP2PCycleBudget: a point-to-point cycle in the p2p_cold shape — a
// pair never routed before, whose shape no template was learned for, goes
// through the candidate templates; unrouted, it is routed again by exact
// replay, and unrouted again. It reads 7 objects a cycle: two records of
// two objects each (the record with its sink and sink pin, and its path),
// the learned template, and the exact-cache entry the first unroute files
// (its key and the holder of its path; the second unroute re-files it). It
// read 11 when a record was four objects (its sinks and sink pins apart),
// and 43 when the template tier and replay allocated their working memory
// per call and every unroute copied its cache key.
func TestP2PCycleBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 8
	r := newTestRouter(t, Options{})
	var src EndPoint = NewPin(2, 2, arch.S1YQ)
	var sinks []EndPoint // every sink a new (Δrow, Δcol): no learned template serves it
	for row := 1; row < 15; row += 2 {
		for col := 4; col < 23; col += 2 {
			sinks = append(sinks, NewPin(row, col, arch.S0F3))
		}
	}
	// The device derives a tile's adjacency the first time a search stands
	// on it: a throwaway router on the same device visits every pair first.
	warm := New(r.Dev)
	for _, sink := range sinks {
		if err := warm.RouteNet(src, sink); err != nil {
			t.Fatal(err)
		}
		if err := warm.Unroute(src); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	before := r.Stats()
	got := allocsPerRun(func() {
		sink := sinks[next]
		next++
		for range 2 {
			if err := r.RouteNet(src, sink); err != nil {
				t.Fatal(err)
			}
			if err := r.Unroute(src); err != nil {
				t.Fatal(err)
			}
		}
	})
	if d := r.Stats().Sub(before); d.TemplateHits != next || d.CacheHits != next || d.Routes != 2*next {
		t.Fatalf("%d cycles: %d template hits, %d cache hits, %d routes: not one of each a cycle",
			next, d.TemplateHits, d.CacheHits, d.Routes)
	}
	t.Logf("a template → unroute → replay → unroute cycle allocates %.2f objects", got)
	if got > budget {
		t.Errorf("a template → unroute → replay → unroute cycle allocates %.2f objects, budget %d", got, budget)
	}
}

// TestBatchReloadBudget: a small design in the batch_reload shape — six
// crossing nets negotiated together, committed, then taken down by
// UnrouteAll — allocates the records it makes and nothing the negotiation
// works in: two objects a net (the record with its sink and sink pin, and
// its path), 12 objects. It read 50 when the negotiation allocated its
// lists, route buffers and result on every call and a record was four
// objects, and 70 before that, when RouteBatch built its net list and
// UnrouteAll its PIP list on every call, and every net's unroute copied its
// cache key.
//
// The Parallelism 2 twin routes two such knots far apart on a 64×96
// array: two scopes, which run on the pool. It reads 24: the records of
// twelve nets; the pool, its job and the goroutines' function are the
// router's scratch. It read 27 when the pool's body was a closure and each
// goroutine another, and 28 when every pool was allocated.
func TestBatchReloadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	knot := func(row, col int) []BatchNet {
		var nets []BatchNet
		for i := range 6 {
			nets = append(nets, BatchNet{Source: NewPin(row+i, col, arch.S1YQ), Sinks: []EndPoint{NewPin(row+5-i, col+10, arch.S0F3)}})
		}
		return nets
	}
	for _, c := range []struct {
		par, rows, cols int
		nets            []BatchNet
		apart           bool // the knots are scopes of their own
		budget          int
	}{
		{1, 16, 24, knot(3, 4), false, 14},
		{2, 64, 96, append(knot(3, 4), knot(40, 70)...), true, 24},
	} {
		d, err := device.New(arch.NewVirtex(), c.rows, c.cols)
		if err != nil {
			t.Fatal(err)
		}
		r := New(d, WithParallelism(c.par))
		reload := func() {
			if err := r.RouteBatch(c.nets); err != nil {
				t.Fatal(err)
			}
			if err := r.UnrouteAll(); err != nil {
				t.Fatal(err)
			}
		}
		reload()
		if c.apart {
			if n := scopesOf(t, d, c.nets); n != 2 {
				t.Fatalf("par %d: the knots negotiate in %d scopes, want 2", c.par, n)
			}
		}
		got := allocsPerRun(reload)
		t.Logf("par %d: a route → unroute-all reload of %d nets allocates %.2f objects", c.par, len(c.nets), got)
		if got > float64(c.budget) {
			t.Errorf("par %d: a route → unroute-all reload of %d nets allocates %.2f objects, budget %d", c.par, len(c.nets), got, c.budget)
		}
	}
}

// scopesOf reports how many scopes a partitioned negotiation of pin-to-pin
// nets runs on d.
func scopesOf(t *testing.T, d *device.Device, nets []BatchNet) int {
	t.Helper()
	track := func(e EndPoint) device.Track {
		p := e.(Pin)
		tr, err := d.Canon(p.Row, p.Col, p.W)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var specs []maze.NetSpec
	for _, n := range nets {
		specs = append(specs, maze.NetSpec{Source: track(n.Source), Sinks: []device.Track{track(n.Sinks[0])}})
	}
	res, err := maze.NegotiatedRoute(d, specs, maze.NegotiationOptions{Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Regions
}

// TestClockCycleBudget: a core's clock in the core_swap shape — RouteClock
// onto eight clock pins, four CLBs' S0CLK and S1CLK, taken back by
// UnrouteWithin — allocates the clock record. It reads 14: RouteClock's
// tap list, the eight taps and the clock source boxed as endpoints, and the
// record with its own copy of the taps, their pins and its path. It read 26
// when RouteClock resolved each sink with Pins, one object a pin, and grew
// its tap list by appending, and 15 when the rip-up allocated its list of
// what it takes instead of filling router scratch.
func TestClockCycleBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 14
	r := newTestRouter(t, Options{})
	var sinks []EndPoint
	for row := 4; row < 8; row++ {
		sinks = append(sinks, NewPin(row, 6, arch.S0CLK), NewPin(row, 6, arch.S1CLK))
	}
	cycle := func() {
		since := r.Seq()
		if err := r.RouteClock(0, sinks...); err != nil {
			t.Fatal(err)
		}
		if err := r.UnrouteWithin(4, 6, 4, 1, since); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := r.Dev.OnPIPCount(); n != 0 {
		t.Fatalf("UnrouteWithin left %d PIPs on", n)
	}
	got := allocsPerRun(cycle)
	t.Logf("a RouteClock → UnrouteWithin cycle of %d taps allocates %.2f objects", len(sinks), got)
	if got > budget {
		t.Errorf("a RouteClock → UnrouteWithin cycle of %d taps allocates %.2f objects, budget %d", len(sinks), got, budget)
	}
}
