package core

import (
	"testing"

	"repro/internal/arch"
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
// replay, and unrouted again. It reads 11 objects a cycle: two records of
// four objects each (the record, its sinks, its path, its sink pins), the
// learned template, and the exact-cache entry the first unroute files (its
// key and the holder of its path; the second unroute re-files it). It read
// 43 when the template tier and replay allocated their working memory per
// call and every unroute copied its cache key.
func TestP2PCycleBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 12
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
// UnrouteAll — allocates what the negotiation returns and works in, and the
// records it makes: 50 objects. It read 70 when RouteBatch built its net
// list and UnrouteAll its PIP list on every call, and every net's unroute
// copied its cache key.
func TestBatchReloadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 52
	r := newTestRouter(t, Options{Parallelism: 1})
	var nets []BatchNet
	for i := range 6 {
		nets = append(nets, BatchNet{Source: NewPin(3+i, 4, arch.S1YQ), Sinks: []EndPoint{NewPin(8-i, 14, arch.S0F3)}})
	}
	reload := func() {
		if err := r.RouteBatch(nets); err != nil {
			t.Fatal(err)
		}
		if err := r.UnrouteAll(); err != nil {
			t.Fatal(err)
		}
	}
	reload()
	got := allocsPerRun(reload)
	t.Logf("a route → unroute-all reload of six nets allocates %.2f objects", got)
	if got > budget {
		t.Errorf("a route → unroute-all reload of six nets allocates %.2f objects, budget %d", got, budget)
	}
}
