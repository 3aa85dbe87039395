package cores

import (
	"runtime/debug"
	"testing"
)

// TestReplaceBounceBudget: cores.Replace in the shape of BenchmarkReplace
// and the core_swap workload — a constant multiplier whose product bus
// feeds a register, bounced between two sites and back — allocates, once
// both sites have been seen, the records it keeps — two objects each for
// the twelve product nets it restores, the record with its sink and sink
// pin, and its path — and nothing else: 24 objects a round trip. It read 48
// when a record was four objects, and 228 when the replay, the port memory,
// the group and port copies, the multiplier's input-pin lists and the LUT
// list allocated their working memory per call and every unroute copied its
// cache key.
func TestReplaceBounceBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 26
	r := newRig(t)
	mul, err := NewConstMul("mul", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegister("reg", mul.OutBits())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return mul.Place(4, 10) },
		func() error { return mul.Implement(r) },
		func() error { return reg.Place(4, 16) },
		func() error { return reg.Implement(r) },
		func() error { return r.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	groups := []string{"p", "x"}
	bounce := func() {
		for _, at := range [2][2]int{{9, 10}, {4, 10}} {
			if err := Replace(r, mul, at[0], at[1], groups, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	bounce() // both sites seen: every later route is a replay
	before := r.Stats()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(20, bounce)
	if d := r.Stats().Sub(before); d.MazeFallbacks != 0 || d.TemplateHits != 0 || d.CacheHits == 0 {
		t.Fatalf("%d maze fallbacks, %d template hits, %d cache hits: not a replayed bounce",
			d.MazeFallbacks, d.TemplateHits, d.CacheHits)
	}
	t.Logf("a Replace round trip allocates %.2f objects", got)
	if got > budget {
		t.Errorf("a Replace round trip allocates %.2f objects, budget %d", got, budget)
	}
}
