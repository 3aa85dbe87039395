package maze

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
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
// worker count, on two workloads that split into many scopes: clustered
// knots alone, and the knots+crossbar shape, where one dominant scope (the
// crossbar and the knots its box overlaps, 144 of 208 nets) negotiates
// beside 32-net knots.
func TestPartitionEqualsGlobal(t *testing.T) {
	for _, in := range []struct {
		name string
		nets func(d *device.Device) []NetSpec
	}{
		{"clustered", func(d *device.Device) []NetSpec { return clusteredNets(t, d, 2, 3, 4) }},
		{"knots+crossbar", func(d *device.Device) []NetSpec { return KnotsAndCrossbar(t, d) }},
	} {
		t.Run(in.name, func(t *testing.T) {
			build := func() (*device.Device, []NetSpec) {
				d := bigDev(t, 64, 96)
				return d, in.nets(d)
			}
			d, nets := build()
			global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if global.Regions != 0 {
				t.Errorf("global run reports partition stats: %+v", global)
			}
			for _, par := range []int{1, 2, 8} {
				d, nets := build()
				part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
				if err != nil {
					t.Fatalf("partitioned par %d: %v", par, err)
				}
				assertSameBatch(t, fmt.Sprintf("par %d", par), part, global)
				if part.Regions < 2 {
					t.Errorf("par %d: expected multiple scopes, got %d", par, part.Regions)
				}
			}
		})
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
		if part.Regions < 2 {
			t.Errorf("par %d: corners should split, got %d scopes", par, part.Regions)
		}
	}
}

// TestPartitionThinDevice: on a minimum-height device every net box spans
// all rows, so only columns separate nets — the degenerate "1×N" geometry
// must still split and still match the global result.
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
	if part.Regions < 2 {
		t.Errorf("thin device did not split: %d scopes", part.Regions)
	}
}

// TestPartitionAllCrossing: when every net's box overlaps its neighbour's,
// the batch must collapse into a single scope — the exact unpartitioned
// global pass — rather than split interacting nets.
func TestPartitionAllCrossing(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		var nets []NetSpec
		// Every net spans the middle columns, and they blanket the rows.
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
	// Row boxes are ±margin around each net's row, and every net spans
	// columns 20..76; with 10-row spacing and a 12-tile margin, adjacent
	// nets overlap and chain into one scope.
	if part.Regions != 1 {
		t.Errorf("chained crossing nets should merge into one scope, got %d", part.Regions)
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
	if res.Regions != 2 {
		t.Errorf("%d scopes, want 2 isolated ones", res.Regions)
	}
	if res.Iterations != 1 {
		t.Errorf("isolated nets took %d iterations", res.Iterations)
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

// TestScopesAreBoxComponents holds buildScopes to a brute-force union-find
// over every pair of boxes, on seeded random box sets: boxes touching on
// exactly one row or column, nested boxes, one-tile boxes and boxes clamped
// at the array edge. Each scope must be one component, its nets ascending
// and a window of the scratch's members, the scopes largest first and then
// by first net. One scratch serves every draw, as one router's does.
func TestScopesAreBoxComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s negScratch
	for draw := 0; draw < 2000; draw++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		boxes := make([]rect, 1+rng.Intn(40))
		for i := range boxes {
			var b rect
			switch k := rng.Intn(8); {
			case k == 0 && i > 0: // touching an earlier box on one row or column
				b = boxes[rng.Intn(i)]
				if rng.Intn(2) == 0 {
					b.r0, b.r1 = b.r1, b.r1+rng.Intn(4)
				} else {
					b.c0, b.c1 = b.c1, b.c1+rng.Intn(4)
				}
			case k == 1 && i > 0: // nested in an earlier box
				o := boxes[rng.Intn(i)]
				b.r0, b.c0 = o.r0+rng.Intn(o.r1-o.r0+1), o.c0+rng.Intn(o.c1-o.c0+1)
				b.r1, b.c1 = b.r0+rng.Intn(o.r1-b.r0+1), b.c0+rng.Intn(o.c1-b.c0+1)
			case k == 2: // one tile
				b.r0, b.c0 = rng.Intn(rows), rng.Intn(cols)
				b.r1, b.c1 = b.r0, b.c0
			default: // anywhere, hanging over the edge before the clamp
				b.r0, b.c0 = rng.Intn(rows+6)-3, rng.Intn(cols+6)-3
				b.r1, b.c1 = b.r0+rng.Intn(8), b.c0+rng.Intn(8)
			}
			b.r0, b.c0 = max(b.r0, 0), max(b.c0, 0)
			b.r1, b.c1 = min(b.r1, rows-1), min(b.c1, cols-1)
			if b.r0 > b.r1 || b.c0 > b.c1 { // wholly off the array: clamp to the corner
				b.r0, b.c0 = min(b.r0, rows-1), min(b.c0, cols-1)
				b.r1, b.c1 = b.r0, b.c0
			}
			boxes[i] = b
		}
		want := refComponents(boxes)
		scopes := s.buildScopes(boxes, true)
		if len(scopes) != len(want) {
			t.Fatalf("draw %d, boxes %v: %d scopes, want %d", draw, boxes, len(scopes), len(want))
		}
		for k, sc := range scopes {
			if !slices.Equal(sc.nets, want[k]) {
				t.Fatalf("draw %d, boxes %v: scope %d is %v, want %v", draw, boxes, k, sc.nets, want[k])
			}
			if !slices.Equal(s.members[sc.off:sc.off+len(sc.nets)], sc.nets) {
				t.Fatalf("draw %d: scope %d is not members[%d:]", draw, k, sc.off)
			}
		}
		if one := s.buildScopes(boxes, false); len(one) != 1 || len(one[0].nets) != len(boxes) || !slices.IsSorted(one[0].nets) {
			t.Fatalf("draw %d: unsplit, %d scopes", draw, len(one))
		}
	}
}

// refComponents is the connected components of box overlap by testing
// every pair: each component's nets ascending, the components largest first
// and then by first net.
func refComponents(boxes []rect) [][]int {
	root := make([]int, len(boxes))
	for i := range root {
		root[i] = i
	}
	find := func(x int) int {
		for root[x] != x {
			x = root[x]
		}
		return x
	}
	for i := range boxes {
		for j := range i {
			if boxes[i].intersects(boxes[j]) {
				if a, b := find(i), find(j); a != b {
					root[max(a, b)] = min(a, b)
				}
			}
		}
	}
	byRoot := map[int][]int{}
	for i := range boxes {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var comps [][]int
	for _, c := range byRoot {
		comps = append(comps, c)
	}
	slices.SortFunc(comps, func(a, b []int) int { return cmp.Or(cmp.Compare(len(b), len(a)), cmp.Compare(a[0], b[0])) })
	return comps
}

// FuzzPartitionEqualsGlobal holds the exactness claim on fuzzed batches:
// six bytes a net, up to 12 nets on a 24×36 array — source tile and output
// pin, then a sink up to eight tiles away in each axis and its input pin;
// the top two bits of the last byte set add a second sink at the offsets
// swapped. Partitioned, at one worker and at two, the negotiation must
// answer what the global loop answers: the same error, or the same PIPs
// for every net with the same Iterations and Explored.
func FuzzPartitionEqualsGlobal(f *testing.F) {
	f.Add([]byte{2, 2, 0, 10, 12, 0, 20, 30, 1, 6, 4, 1})                    // two nets far apart
	f.Add([]byte{5, 5, 0, 8, 15, 0, 5, 5, 1, 8, 15, 1, 5, 5, 2, 8, 15, 2})   // a contended knot
	f.Add([]byte{4, 4, 0, 9, 9, 3, 4, 12, 1, 9, 1, 3, 16, 8, 4, 8, 8, 0xc5}) // one sink shared
	d := bigDev(f, 24, 36)
	f.Fuzz(func(t *testing.T, data []byte) {
		var nets []NetSpec
		for ; len(data) >= 6 && len(nets) < 12; data = data[6:] {
			r, c := int(data[0])%d.Rows, int(data[1])%d.Cols
			src, ok := d.CanonOK(r, c, arch.OutPin(int(data[2])%arch.NumOutPins))
			if !ok {
				continue
			}
			dr, dc, in := int(data[3]%17)-8, int(data[4]%17)-8, arch.Input(int(data[5])%arch.NumInputs)
			net := NetSpec{Source: src}
			for _, off := range [][2]int{{dr, dc}, {dc, dr}}[:1+int(data[5]>>6)/3] {
				if sink, ok := d.CanonOK(r+off[0], c+off[1], in); ok {
					net.Sinks = append(net.Sinks, sink)
				}
			}
			if len(net.Sinks) > 0 {
				nets = append(nets, net)
			}
		}
		if len(nets) == 0 {
			return
		}
		global, gerr := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
		for _, par := range []int{1, 2} {
			part, perr := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
			if gerr != nil || perr != nil {
				if gerr == nil || perr == nil || gerr.Error() != perr.Error() {
					t.Fatalf("par %d: global %v, partitioned %v", par, gerr, perr)
				}
				continue
			}
			assertSameBatch(t, fmt.Sprintf("par %d", par), part, global)
		}
	})
}
