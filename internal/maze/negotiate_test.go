package maze

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

func applyBatch(t *testing.T, d *device.Device, res *BatchResult) {
	t.Helper()
	for _, pips := range res.Nets {
		for _, p := range pips {
			if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
				t.Fatalf("committing %s: %v", d.PIPString(p), err)
			}
		}
	}
}

func netSpec(t *testing.T, d *device.Device, sr, sc int, srcW arch.Wire, sinks ...[3]int) NetSpec {
	t.Helper()
	src, err := d.Canon(sr, sc, srcW)
	if err != nil {
		t.Fatal(err)
	}
	spec := NetSpec{Source: src}
	for _, s := range sinks {
		sink, err := d.Canon(s[0], s[1], arch.Input(s[2]))
		if err != nil {
			t.Fatal(err)
		}
		spec.Sinks = append(spec.Sinks, sink)
	}
	return spec
}

func TestNegotiatedRouteBasic(t *testing.T) {
	d := virtexDev(t)
	nets := []NetSpec{
		netSpec(t, d, 2, 2, arch.S0X, [3]int{6, 9, 0}),
		netSpec(t, d, 3, 2, arch.S0X, [3]int{7, 9, 0}),
		netSpec(t, d, 4, 2, arch.S0X, [3]int{8, 9, 0}, [3]int{5, 9, 8}),
	}
	res, err := NegotiatedRoute(d, nets, NegotiationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 3 {
		t.Fatalf("%d nets", len(res.Nets))
	}
	if res.Iterations < 1 {
		t.Error("no iterations counted")
	}
	// No track shared between nets, and everything commits cleanly.
	seen := map[device.Key]int{}
	for i, pips := range res.Nets {
		for _, p := range pips {
			tr, err := d.Canon(p.Row, p.Col, p.To)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := seen[tr.Key()]; ok && prev != i {
				t.Fatalf("track %v shared by nets %d and %d", tr, prev, i)
			}
			seen[tr.Key()] = i
		}
	}
	applyBatch(t, d, res)
	// Each sink reaches its source.
	for i, n := range nets {
		for _, sink := range n.Sinks {
			if root := chainRoot(d, sink); root != n.Source {
				t.Errorf("net %d: sink %v roots at %v", i, sink, root)
			}
		}
	}
}

func TestNegotiatedRouteCrossing(t *testing.T) {
	// Crossing nets forced through adjacent columns must converge.
	d := virtexDev(t)
	var nets []NetSpec
	const width = 10
	for i := 0; i < width; i++ {
		nets = append(nets, netSpec(t, d, i, 6, arch.OutPin(i%8),
			[3]int{(i + width/2) % width, 8, i % arch.NumInputs}))
	}
	res, err := NegotiatedRoute(d, nets, NegotiationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applyBatch(t, d, res)
	for i, n := range nets {
		if root := chainRoot(d, n.Sinks[0]); root != n.Source {
			t.Errorf("net %d wrong root", i)
		}
	}
}

func TestNegotiatedRouteValidation(t *testing.T) {
	d := virtexDev(t)
	if _, err := NegotiatedRoute(d, nil, NegotiationOptions{}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("empty batch: %v", err)
	}
	src, _ := d.Canon(2, 2, arch.S0X)
	if _, err := NegotiatedRoute(d, []NetSpec{{Source: src}}, NegotiationOptions{}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("sink-less net: %v", err)
	}
	// A sink already driven on the device is a hard failure.
	if err := d.SetPIP(6, 9, arch.S0X, arch.S0F1); err != nil {
		t.Fatal(err)
	}
	nets := []NetSpec{netSpec(t, d, 2, 2, arch.S0X, [3]int{6, 9, 0})}
	if _, err := NegotiatedRoute(d, nets, NegotiationOptions{}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("driven sink: %v", err)
	}
}

func TestNegotiatedRouteRespectsDeviceState(t *testing.T) {
	// Pre-existing user nets are hard obstacles, not negotiable.
	d := virtexDev(t)
	// Occupy half the out muxes at the source tile (leaving the source
	// pin's own mux choices free).
	for i := 4; i < 8; i++ {
		if err := d.SetPIP(5, 7, arch.OutPin(i), arch.Out(i)); err != nil {
			t.Fatal(err)
		}
	}
	nets := []NetSpec{netSpec(t, d, 5, 7, arch.S0X, [3]int{5, 9, 0})}
	res, err := NegotiatedRoute(d, nets, NegotiationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The route must not target any driven track.
	for _, p := range res.Nets[0] {
		tr, _ := d.Canon(p.Row, p.Col, p.To)
		if _, driven := d.DriverOf(tr); driven {
			t.Fatalf("negotiated route drives an occupied track: %s", d.PIPString(p))
		}
	}
	applyBatch(t, d, res)
}

// TestNegotiatedRouteParallelDeterminism: within an iteration every net
// routes against the same congestion snapshot, so worker count must not
// change the result at all — same PIPs, same iteration count, same explored
// total.
func TestNegotiatedRouteParallelDeterminism(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := virtexDev(t)
		var nets []NetSpec
		const width = 10
		for i := 0; i < width; i++ {
			nets = append(nets, netSpec(t, d, i, 6, arch.OutPin(i%8),
				[3]int{(i + width/2) % width, 8, i % arch.NumInputs}))
		}
		return d, nets
	}
	run := func(par int) *BatchResult {
		d, nets := build()
		res, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res
	}
	seq := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		if got.Iterations != seq.Iterations {
			t.Errorf("parallelism %d: %d iterations, sequential %d", par, got.Iterations, seq.Iterations)
		}
		if got.Explored != seq.Explored {
			t.Errorf("parallelism %d: explored %d, sequential %d", par, got.Explored, seq.Explored)
		}
		if len(got.Nets) != len(seq.Nets) {
			t.Fatalf("parallelism %d: %d nets, sequential %d", par, len(got.Nets), len(seq.Nets))
		}
		for i := range got.Nets {
			if len(got.Nets[i]) != len(seq.Nets[i]) {
				t.Fatalf("parallelism %d: net %d has %d PIPs, sequential %d",
					par, i, len(got.Nets[i]), len(seq.Nets[i]))
			}
			for j := range got.Nets[i] {
				if got.Nets[i][j] != seq.Nets[i][j] {
					t.Fatalf("parallelism %d: net %d PIP %d differs: %v vs %v",
						par, i, j, got.Nets[i][j], seq.Nets[i][j])
				}
			}
		}
	}
}

func TestTemplateRouteToPinsTile(t *testing.T) {
	d, err := device.New(arch.NewVirtex(), 32, 48)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := d.Canon(6, 0, arch.S0X)
	opt := Options{UseLongLines: true}
	tmpl := []arch.TemplateValue{
		arch.TVOutMux, arch.TVLongH, arch.TVEast6,
		arch.TVEast1, arch.TVWest1, arch.TVClbIn,
	}
	// Unconstrained: the long's exit branching can land at several tiles.
	free, err := TemplateRoute(d, src, arch.S0F1, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(free.PIPs) == 0 {
		t.Fatal("no route")
	}
	// Constrained to (6,42): the final PIP must be there.
	var s Scratch
	to, _, err := s.TemplateRoute(d, src, arch.S0F1, device.Coord{Row: 6, Col: 42}, true, tmpl, opt)
	if err != nil {
		t.Fatal(err)
	}
	last := to[len(to)-1]
	if last.Row != 6 || last.Col != 42 || last.To != arch.S0F1 {
		t.Errorf("constrained route ends at %v", last)
	}
	// Constraining to an unreachable tile fails.
	if _, _, err := s.TemplateRoute(d, src, arch.S0F1, device.Coord{Row: 20, Col: 1}, true, tmpl, opt); !errors.Is(err, ErrUnroutable) {
		t.Errorf("impossible tile: %v", err)
	}
}

// TestTimingDrivenPrefersFastResources: on a 36-column span with longs
// enabled, the timing cost model must produce an estimated delay no worse
// than the wire-count model, and it must still route correctly.
func TestTimingDrivenPrefersFastResources(t *testing.T) {
	mk := func() *device.Device {
		d, err := device.New(arch.NewVirtex(), 32, 48)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	run := func(timingDriven bool) (*Route, *device.Device) {
		d := mk()
		src, _ := d.Canon(6, 0, arch.S0X)
		sink, _ := d.Canon(6, 36, arch.S0F1)
		r, err := AStar(d, []device.Track{src}, sink, Options{UseLongLines: true, TimingDriven: timingDriven})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.PIPs {
			if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
				t.Fatal(err)
			}
		}
		if root := chainRoot(d, sink); root != src {
			t.Fatal("wrong root")
		}
		return r, d
	}
	def, dDef := run(false)
	tim, dTim := run(true)
	cost := func(d *device.Device, r *Route) int {
		c := 0
		for _, p := range r.PIPs {
			tr, _ := d.CanonOK(p.Row, p.Col, p.To)
			c += timingCost(d.A.ClassOf(tr.W).Kind)
		}
		return c
	}
	if cost(dTim, tim) > cost(dDef, def) {
		t.Errorf("timing-driven route costs %d > default %d (in timing units)",
			cost(dTim, tim), cost(dDef, def))
	}
}

func TestKindCostModels(t *testing.T) {
	wires := Options{}.astar().hop
	if wires[arch.KindHex] != 2 || wires[arch.KindSingle] != 1 {
		t.Error("default cost model")
	}
	delay := Options{TimingDriven: true}.astar().hop
	// Per-tile ordering must favour hexes over singles and longs over
	// everything for chip spans (these ratios mirror timing.Default).
	if delay[arch.KindHex] >= 6*delay[arch.KindSingle] {
		t.Error("timing model: hex not cheaper per tile than singles")
	}
	if delay[arch.KindLongH] >= 3*delay[arch.KindHex] {
		t.Error("timing model: long not cheaper than three hexes")
	}
}

func TestHopExitsLongBranching(t *testing.T) {
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	long, _ := d.Canon(3, 0, d.A.LongH(0))
	exits := appendHopExits(nil, d, long, device.Coord{Row: 3, Col: 6}, arch.TVLongH)
	if len(exits) != 3 { // taps 0, 12, 18 (not the entry 6)
		t.Errorf("long exits = %v", exits)
	}
	for _, e := range exits {
		if e == (device.Coord{Row: 3, Col: 6}) {
			t.Error("entry tile included in exits")
		}
	}
	// Non-directional values stay put.
	mux, _ := d.Canon(3, 3, arch.Out(0))
	at := device.Coord{Row: 3, Col: 3}
	if ex := appendHopExits(nil, d, mux, at, arch.TVOutMux); len(ex) != 1 || ex[0] != at {
		t.Errorf("outmux exits = %v", ex)
	}
}

// TestNegotiatedRouteSinkOrderStable: a net's sinks are routed nearest
// first, and sinks equally near in the order the caller gave them — with
// sort.Slice, past twelve sinks, that order was whatever the Go release's
// pdqsort made of it. Sixteen sinks at four distances, given in an order
// that interleaves the distances; the routed order is read back from where
// each sink's final PIP sits in the net's PIP list.
func TestNegotiatedRouteSinkOrderStable(t *testing.T) {
	d := virtexDev(t)
	const sr, sc = 8, 12
	offsets := [][2]int{ // (row, col) offsets at distance 2, 3, 4, 5: four of each
		{2, 0}, {0, 3}, {4, 0}, {0, 5}, {0, 2}, {3, 0}, {0, 4}, {5, 0},
		{-2, 0}, {0, -3}, {-4, 0}, {0, -5}, {0, -2}, {-3, 0}, {0, -4}, {-5, 0},
	}
	var sinks [][3]int
	for i, o := range offsets {
		sinks = append(sinks, [3]int{sr + o[0], sc + o[1], i % arch.NumInputs})
	}
	net := netSpec(t, d, sr, sc, arch.S0X, sinks...)
	res, err := NegotiatedRoute(d, []NetSpec{net}, NegotiationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []device.Track
	for dist := 2; dist <= 5; dist++ {
		for i, o := range offsets {
			if abs(o[0])+abs(o[1]) == dist {
				want = append(want, net.Sinks[i])
			}
		}
	}
	var got []device.Track
	for _, p := range res.Nets[0] {
		if to, _ := d.CanonOK(p.Row, p.Col, p.To); slices.Contains(net.Sinks, to) {
			got = append(got, to)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("sinks routed in the order\n%v\nwant nearest first, ties in input order:\n%v", got, want)
	}
}

// poolFunc is a pool job written as a function.
type poolFunc func(*pool)

func (f poolFunc) work(p *pool) { f(p) }

// TestRunPoolRaisesOnCaller: a panic in one of a pool's goroutines ends that
// goroutine only. The others take every index left, and the pool's caller
// gets the panic — its value, and the stack it was raised on — once they
// are all done.
func TestRunPoolRaisesOnCaller(t *testing.T) {
	const n, k = 64, 37
	var done [n]atomic.Bool
	raised := func() (v any) {
		defer func() { v = recover() }()
		runPool(&pool{}, 4, poolFunc(func(p *pool) {
			for i := p.take(); i < n; i = p.take() {
				if i == k {
					panic(fmt.Sprintf("index %d", i))
				}
				done[i].Store(true)
			}
		}))
		return nil
	}()
	p, ok := raised.(*poolPanic)
	if !ok || p.value != "index 37" || !strings.Contains(string(p.stack), "TestRunPoolRaisesOnCaller") {
		t.Fatalf("the caller recovered %v", raised)
	}
	for i := range done {
		if done[i].Load() == (i == k) {
			t.Errorf("index %d done: %v", i, done[i].Load())
		}
	}
}
