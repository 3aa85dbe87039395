package maze

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

func bigDev(t testing.TB, rows, cols int) *device.Device {
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// clusteredNets builds one small net per cluster cell of a grid laid over
// the device: source and sink a few tiles apart, far from every other
// cluster, so the inflated boxes partition cleanly.
func clusteredNets(t *testing.T, d *device.Device, gr, gc, per int) []NetSpec {
	t.Helper()
	cellH, cellW := d.Rows/gr, d.Cols/gc
	var nets []NetSpec
	for r := 0; r < gr; r++ {
		for c := 0; c < gc; c++ {
			cr, cc := r*cellH+cellH/2, c*cellW+cellW/2
			for k := 0; k < per; k++ {
				nets = append(nets, netSpec(t, d, cr, cc+k%2, arch.OutPin(k%8),
					[3]int{cr + 2, cc + 1, k % arch.NumInputs}))
			}
		}
	}
	return nets
}

// assertSameBatch fails unless the two results route every net through
// the identical PIP sequence with identical work counters.
func assertSameBatch(t *testing.T, label string, a, b *BatchResult) {
	t.Helper()
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: %d nets vs %d", label, len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if len(a.Nets[i]) != len(b.Nets[i]) {
			t.Fatalf("%s: net %d has %d PIPs vs %d", label, i, len(a.Nets[i]), len(b.Nets[i]))
		}
		for j := range a.Nets[i] {
			if a.Nets[i][j] != b.Nets[i][j] {
				t.Fatalf("%s: net %d PIP %d: %v vs %v", label, i, j, a.Nets[i][j], b.Nets[i][j])
			}
		}
	}
	if a.Iterations != b.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if a.Explored != b.Explored {
		t.Errorf("%s: explored %d vs %d", label, a.Explored, b.Explored)
	}
}

// TestPartitionEqualsGlobal: the headline exactness guarantee — scope
// decomposition computes exactly what the global loop computes, for any
// worker count, on a workload that actually splits into many scopes.
func TestPartitionEqualsGlobal(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		return d, clusteredNets(t, d, 2, 3, 4)
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if global.Regions != 0 || global.Scopes != 0 || global.CrossingNets != 0 {
		t.Errorf("global run reports partition stats: %+v", global)
	}
	if global.GlobalIterations != global.Iterations {
		t.Errorf("global run: GlobalIterations %d != Iterations %d", global.GlobalIterations, global.Iterations)
	}
	for _, par := range []int{1, 2, 8} {
		d, nets := build()
		part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
		if err != nil {
			t.Fatalf("partitioned par %d: %v", par, err)
		}
		assertSameBatch(t, fmt.Sprintf("par %d", par), part, global)
		if part.Scopes < 2 {
			t.Errorf("par %d: expected multiple scopes, got %d (regions %d)", par, part.Scopes, part.Regions)
		}
		if part.CrossingNets != 0 {
			t.Errorf("par %d: clustered nets should not cross cuts, got %d", par, part.CrossingNets)
		}
		if part.RegionIterations == 0 {
			t.Errorf("par %d: no region iterations recorded", par)
		}
	}
}

// TestPartitionConflictEquality: scopes that still contain real track
// conflicts must converge through the identical keeper/rip-up trajectory
// as the global loop — multiple iterations, same bytes.
func TestPartitionConflictEquality(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		var nets []NetSpec
		// Two contended fanout knots in two distant corners: eight nets
		// each leaving one tile for the same far tile share the cheapest
		// corridor on iteration 1 (presFac=0), forcing real rip-up
		// rounds inside each scope — and none between them.
		for _, base := range [][2]int{{10, 10}, {50, 80}} {
			for i := 0; i < 8; i++ {
				nets = append(nets, netSpec(t, d, base[0], base[1], arch.OutPin(i),
					[3]int{base[0], base[1] + 7, i}))
			}
		}
		return d, nets
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if global.Iterations < 2 {
		t.Skipf("workload did not contend (iterations=%d); conflict equality untested", global.Iterations)
	}
	for _, par := range []int{1, 8} {
		d, nets := build()
		part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
		if err != nil {
			t.Fatalf("partitioned par %d: %v", par, err)
		}
		assertSameBatch(t, fmt.Sprintf("contended par %d", par), part, global)
		if part.Scopes < 2 {
			t.Errorf("par %d: corners should split, got %d scopes", par, part.Scopes)
		}
	}
}

// TestPartitionThinDevice: on a minimum-height device every net box spans
// all rows, so only column cuts are productive — the degenerate "1×N"
// geometry must still split and still match the global result.
func TestPartitionThinDevice(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 12, 96)
		return d, clusteredNets(t, d, 1, 3, 3)
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, nets = build()
	part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 4, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatch(t, "thin device", part, global)
	if part.Scopes < 2 {
		t.Errorf("thin device did not split: %d scopes, %d regions", part.Scopes, part.Regions)
	}
}

// TestPartitionAllCrossing: when every net's box overlaps the only
// productive cut, the conservative merge must collapse the batch into a
// single scope — the exact pre-partitioning global pass — rather than
// split interacting nets.
func TestPartitionAllCrossing(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		var nets []NetSpec
		// Every net spans the middle columns, so any vertical cut
		// crosses all of them, and they blanket the rows so horizontal
		// cuts fare no better.
		for i := 0; i < 6; i++ {
			nets = append(nets, netSpec(t, d, 4+i*10, 20, arch.OutPin(i%8),
				[3]int{4 + i*10, 76, i % arch.NumInputs}))
		}
		return d, nets
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, nets = build()
	part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 8, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatch(t, "all-crossing", part, global)
	// Row boxes are ±margin around each net's row, so horizontal cuts do
	// split these nets — but every vertical span overlaps the column cut.
	// Whatever the tree does, correctness demands nets sharing columns
	// 20..76 that overlap in rows end up merged; with 10-row spacing and
	// a 12-tile margin, adjacent nets chain into one scope.
	if part.Scopes != 1 {
		t.Errorf("chained crossing nets should merge into one scope, got %d", part.Scopes)
	}
}

// TestPartitionSingleNetRegion: isolated nets negotiate alone — one net
// per scope, converging in one iteration each.
func TestPartitionSingleNetRegion(t *testing.T) {
	d := bigDev(t, 64, 96)
	nets := []NetSpec{
		netSpec(t, d, 5, 5, arch.S0X, [3]int{7, 7, 0}),
		netSpec(t, d, 55, 85, arch.S0X, [3]int{57, 87, 0}),
	}
	res, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scopes != 2 || res.Regions < 2 {
		t.Errorf("scopes %d regions %d, want 2 isolated regions", res.Scopes, res.Regions)
	}
	if res.Iterations != 1 {
		t.Errorf("isolated nets took %d iterations", res.Iterations)
	}
	if res.RegionIterations != 2 || res.GlobalIterations != 0 {
		t.Errorf("iteration split %d/%d, want 2 region / 0 global",
			res.RegionIterations, res.GlobalIterations)
	}
}

// TestPartitionDepthCap: the depth handed to buildScopes bounds the
// bisection tree, and the depth NegotiatedRoute derives grows with
// Parallelism — but no depth changes the routed result.
func TestPartitionDepthCap(t *testing.T) {
	d := bigDev(t, 64, 96)
	nets := clusteredNets(t, d, 2, 3, 2)
	ref, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	prepped := make([]preppedNet, len(nets))
	boxes := make([]rect, len(nets))
	for i, n := range nets { // one sink each: nothing to order
		boxes[i] = netBox(d, n.Source, n.Sinks, 2*d.A.HexLen)
		prepped[i] = preppedNet{src: n.Source, sinks: n.Sinks, box: boxes[i]}
	}
	var s negScratch
	for _, depth := range []int{1, 2, 3, 7} {
		scopes, regions, _ := s.buildScopes(d, boxes, depth)
		if regions > 1<<depth {
			t.Errorf("depth %d produced %d regions", depth, regions)
		}
		routed := 0
		for si, r := range s.runScopes(d, NegotiationOptions{Parallelism: 1}, prepped, scopes) {
			if r.err != nil {
				t.Fatalf("depth %d: %v", depth, r.err)
			}
			for j, i := range scopes[si].nets {
				routed++
				if !slices.Equal(r.routes[j], ref.Nets[i]) {
					t.Fatalf("depth %d: net %d: %v, global %v", depth, i, r.routes[j], ref.Nets[i])
				}
			}
		}
		if routed != len(nets) {
			t.Errorf("depth %d: scopes hold %d of %d nets", depth, routed, len(nets))
		}
	}
	for _, par := range []int{1, 8} {
		res, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatch(t, fmt.Sprintf("derived depth par %d", par), res, ref)
	}
	if (NegotiationOptions{Parallelism: 1}).partitionDepth() >= (NegotiationOptions{Parallelism: 8}).partitionDepth() {
		t.Error("derived partition depth does not grow with Parallelism")
	}
}

// TestPartitionValidationAndErrors: input validation and failure
// reporting are unchanged by partitioning.
func TestPartitionValidationAndErrors(t *testing.T) {
	d := bigDev(t, 64, 96)
	if _, err := NegotiatedRoute(d, nil, NegotiationOptions{Partition: true}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("empty batch: %v", err)
	}
	// A sink already driven on the device fails identically in both
	// modes, naming the same net.
	if err := d.SetPIP(6, 9, arch.S0X, arch.S0F1); err != nil {
		t.Fatal(err)
	}
	nets := []NetSpec{
		netSpec(t, d, 40, 70, arch.S0X, [3]int{42, 72, 0}),
		netSpec(t, d, 2, 2, arch.S0X, [3]int{6, 9, 0}),
	}
	gerr := func() error {
		_, err := NegotiatedRoute(d, nets, NegotiationOptions{})
		return err
	}()
	perr := func() error {
		_, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true, Parallelism: 8})
		return err
	}()
	if gerr == nil || perr == nil {
		t.Fatalf("driven sink not rejected: global=%v partitioned=%v", gerr, perr)
	}
	if gerr.Error() != perr.Error() {
		t.Errorf("error text diverges:\n  global: %v\n  partitioned: %v", gerr, perr)
	}
}

// TestBestCutDeterminism: the cut chooser is a pure deterministic
// function of the boxes.
func TestBestCutDeterminism(t *testing.T) {
	boxes := []rect{{0, 0, 10, 10}, {20, 0, 30, 10}, {0, 40, 10, 50}, {20, 40, 30, 50}}
	nets := []int{0, 1, 2, 3}
	first := bestCut(rect{0, 0, 63, 95}, boxes, nets)
	if !first.ok || first.crossing != 0 {
		t.Fatalf("clean cut not found: %+v", first)
	}
	for i := 0; i < 10; i++ {
		if got := bestCut(rect{0, 0, 63, 95}, boxes, nets); got != first {
			t.Fatalf("cut changed between calls: %+v vs %+v", got, first)
		}
	}
}
