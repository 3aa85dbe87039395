package maze_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/device"
	"repro/internal/maze"
	"repro/internal/workload"
)

// emptyPools drops every pooled table, so the next call allocates its tables
// as the first call of a process does: a collection moves a sync.Pool's
// objects to its victim cache, and a second one drops them.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// clusteredDesigns draws n Clustered(6, 32, 5) designs, BenchmarkNegotiate's.
func clusteredDesigns(t testing.TB, d *device.Device, n int) [][]maze.NetSpec {
	t.Helper()
	gen := workload.ForDevice(1, d)
	designs := make([][]maze.NetSpec, n)
	for i := range designs {
		srcs, dsts, err := gen.ClusteredPins(6, 32, 5)
		if err != nil {
			t.Fatal(err)
		}
		designs[i] = pairSpecs(t, d, srcs, dsts)
	}
	return designs
}

// TestPooledTablesCarryNothing: the pooled negotiation tables (the call's
// shared congestion table and keeper, the workers' arenas and mark sets)
// carry nothing from one call into the next. The batch
// TestNegotiatedRouteNonConvergence pins gives up with its tables
// mid-negotiation; a converging Clustered design is then routed twice. Each
// outcome (error, or Nets, Iterations and Explored) must equal the same call
// made on empty pools, and after every call each pooled keeper is all zero.
func TestPooledTablesCarryNothing(t *testing.T) {
	d := blankVirtex(t, 64, 96)
	gen := workload.ForDevice(10, d)
	var failing []maze.NetSpec
	for draw := 1; draw <= 5; draw++ {
		failing = knotsAndCrossbar(t, gen, d)
	}
	design := clusteredDesigns(t, d, 1)[0]

	for _, partition := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			opt := maze.NegotiationOptions{Parallelism: par, Partition: partition}
			label := fmt.Sprintf("partition %v par %d", partition, par)
			call := func(nets []maze.NetSpec) string {
				res, err := maze.NegotiatedRoute(d, nets, opt)
				tables, zero := maze.PooledKeepersZero()
				if !zero {
					t.Errorf("%s: a pooled keeper is not zero after the call", label)
				}
				if tables == 0 && !maze.RaceEnabled {
					t.Errorf("%s: no congestion table was pooled after the call", label)
				}
				if err != nil {
					return err.Error()
				}
				return batchDigest(res)
			}
			emptyPools()
			wantFail := call(failing)
			emptyPools()
			wantDesign := call(design)
			for i, c := range []struct {
				nets []maze.NetSpec
				want string
			}{{failing, wantFail}, {design, wantDesign}, {design, wantDesign}} {
				if got := call(c.nets); got != c.want {
					t.Errorf("%s: call %d on warm pools: %s, on empty pools %s", label, i+1, got, c.want)
				}
			}
		}
	}
	if n := d.OnPIPCount(); n != 0 {
		t.Errorf("negotiation left %d PIPs on the device", n)
	}
}

// TestNegotiateAllocatesNoTables counts what a warm NegotiatedRoute
// allocates on BenchmarkNegotiate's designs: the routes it returns, 26 KB a
// call, and no track table or working list (those come from the pools; a
// call allocated 108 KB when the negotiation made its lists per call, and
// 5.6 MB when each scope had tables of its own). Partitioning the
// same nets deeper (Parallelism 8 bisects to depth 7, Parallelism 1 to
// depth 4) must not raise it by more than a few KB: the scopes run in
// lockstep, so every iteration hands one job list to one pool however many
// scopes there are, and more workers start no more than a goroutine each.
// One region table is hundreds of KB.
func TestNegotiateAllocatesNoTables(t *testing.T) {
	if maze.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	d := blankVirtex(t, 64, 96)
	designs := clusteredDesigns(t, d, 8)
	// With the collector off nothing leaves the pools: a collection during
	// the warm-up could drop a table the measured pass would then rebuild.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := func(par int) uint64 {
		opt := maze.NegotiationOptions{Parallelism: par, Partition: true}
		route := func() {
			for _, nets := range designs {
				if _, err := maze.NegotiatedRoute(d, nets, opt); err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
			}
		}
		route() // warms the pools
		// sync.Pool hides each P's last Put from the other Ps, so when
		// more workers run at once than ever before a pass can miss a
		// pooled table and allocate one more. That is a pass's peak, not
		// a call's cost: the least of five passes is the call's cost.
		least := uint64(math.MaxUint64)
		for pass := 0; pass < 5; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			route()
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(len(designs)))
		}
		return least
	}
	one, eight := perCall(1), perCall(8)
	t.Logf("bytes allocated per call: %d at par 1, %d at par 8", one, eight)
	const budget = 64 << 10
	if one > budget || eight > budget {
		t.Errorf("a warm call allocates %d B at par 1 and %d B at par 8, budget %d", one, eight, budget)
	}
	if eight > one+8<<10 {
		t.Errorf("a deeper partition allocates more: %d B a call at par 8, %d at par 1", eight, one)
	}
}
