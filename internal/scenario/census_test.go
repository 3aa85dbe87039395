package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The PIP plane census. A configuration frame is one byte plane of one
// column, so an op ships one frame per distinct (column, plane) its PIPs
// fall in. The census routes seeded scripts of the four kinds the service
// runs — point-to-point pairs through a sliding window, fan-out nets,
// negotiated crossbar batches, and constant-multiplier swaps — on a fresh
// Router, records which PIPs each op set or cleared, and packs the pairs
// that ops touch together in one column into planes of eight. The result
// is internal/arch/planes/<family>.txt. Routes do not depend on the bit
// layout, so the census reads the same PIPs whatever table is compiled in,
// and re-running it rewrites the table byte for byte:
//
//	go test ./internal/scenario -run TestCensusPlanes -update
//
// then recompile and regenerate the goldens (-run Golden -update): the
// streams they pin are laid out by the table.
//
// The scripts' shapes — distances, net counts, fan-outs, cluster and
// crossbar sizes, the core that swaps and its sites — are chosen apart
// from the benchmark's workloads, so a workload's frame count measures
// how the table carries over to shapes it was not built from.

const censusRows, censusCols = 64, 96

// censusOps are the PIPs each op of a script toggled, in op order.
type censusOps [][]device.PIP

// opRecorder diffs the device's set PIPs around every op.
type opRecorder struct {
	dev  *device.Device
	on   map[device.PIP]bool
	buf  []device.PIP
	ops  censusOps
	fail error
}

func newOpRecorder(dev *device.Device) *opRecorder {
	return &opRecorder{dev: dev, on: map[device.PIP]bool{}}
}

// do runs one op and records the PIPs it toggled.
func (o *opRecorder) do(op func() error) {
	if o.fail != nil {
		return
	}
	if o.fail = op(); o.fail != nil {
		return
	}
	o.buf = o.dev.AppendAllOnPIPs(o.buf[:0])
	now := make(map[device.PIP]bool, len(o.buf))
	var toggled []device.PIP
	for _, p := range o.buf {
		now[p] = true
		if !o.on[p] {
			toggled = append(toggled, p)
		}
	}
	for p := range o.on {
		if !now[p] {
			toggled = append(toggled, p)
		}
	}
	slices.SortFunc(toggled, comparePIP)
	o.on = now
	if len(toggled) > 0 {
		o.ops = append(o.ops, toggled)
	}
}

func comparePIP(a, b device.PIP) int {
	if c := a.Col - b.Col; c != 0 {
		return c
	}
	if c := a.Row - b.Row; c != 0 {
		return c
	}
	if c := int(a.From) - int(b.From); c != 0 {
		return c
	}
	return int(a.To) - int(b.To)
}

func newCensusRouter(a *arch.Arch) (*core.Router, *opRecorder, error) {
	dev, err := device.New(a, censusRows, censusCols)
	if err != nil {
		return nil, nil, err
	}
	return core.New(dev), newOpRecorder(dev), nil
}

// pairScript routes pairs at distances 4..40 through a sliding window of
// live nets, unrouting the oldest as each new one goes in — the shape of
// point-to-point churn on a cold router.
func pairScript(a *arch.Arch, seed int64, nRoutes, window int) (censusOps, error) {
	r, rec, err := newCensusRouter(a)
	if err != nil {
		return nil, err
	}
	gen := workload.ForDevice(seed, r.Dev)
	dists := []int{4, 10, 20, 40}
	liveSrc, liveSink := map[core.Pin]bool{}, map[core.Pin]bool{}
	var live [][2]core.Pin
	for i := 0; i < nRoutes && rec.fail == nil; i++ {
		var src, sink core.Pin
		for {
			if src, sink, err = gen.Pair(dists[i%len(dists)]); err != nil {
				return nil, err
			}
			if !liveSrc[src] && !liveSink[sink] {
				break
			}
		}
		rec.do(func() error { return r.RouteNet(src, sink) })
		liveSrc[src], liveSink[sink] = true, true
		live = append(live, [2]core.Pin{src, sink})
		if len(live) > window {
			old := live[0]
			live = live[1:]
			rec.do(func() error { return r.Unroute(old[0]) })
			delete(liveSrc, old[0])
			delete(liveSink, old[1])
		}
	}
	return rec.ops, rec.fail
}

// fanScript routes a set of fan-out nets one by one, then unroutes them.
func fanScript(a *arch.Arch, seed int64) (censusOps, error) {
	r, rec, err := newCensusRouter(a)
	if err != nil {
		return nil, err
	}
	nets, err := workload.ForDevice(seed, r.Dev).FanNets(40, 4, 8)
	if err != nil {
		return nil, err
	}
	for _, n := range nets {
		sinks := make([]core.EndPoint, len(n.Sinks))
		for i, s := range n.Sinks {
			sinks[i] = s
		}
		rec.do(func() error { return r.RouteFanout(n.Src, sinks) })
	}
	for _, n := range nets {
		rec.do(func() error { return r.Unroute(n.Src) })
	}
	return rec.ops, rec.fail
}

// batchScript negotiates knots of clustered nets and a crossbar as one
// batch, then unroutes everything; a design that does not converge is
// skipped, since only routed PIPs count.
func batchScript(a *arch.Arch, seed int64, designs int) (censusOps, error) {
	r, rec, err := newCensusRouter(a)
	if err != nil {
		return nil, err
	}
	gen := workload.ForDevice(seed, r.Dev)
	for i := 0; i < designs; i++ {
		srcs, dsts, err := gen.ClusteredPins(4, 24, 7)
		if err != nil {
			return nil, err
		}
		xs, xd, err := gen.CrossbarPins(12, 28)
		if err != nil {
			return nil, err
		}
		srcs, dsts = append(srcs, xs...), append(dsts, xd...)
		nets := make([]core.BatchNet, len(srcs))
		for j := range srcs {
			nets[j] = core.BatchNet{Source: srcs[j], Sinks: []core.EndPoint{dsts[j]}}
		}
		routed := false
		rec.do(func() error { routed = r.RouteBatch(nets) == nil; return nil })
		if routed {
			rec.do(r.UnrouteAll)
		}
	}
	return rec.ops, rec.fail
}

// swapScript relocates and retunes constant adders wired to registers,
// back and forth between two sites, over background nets.
func swapScript(a *arch.Arch, seed int64, swaps int) (censusOps, error) {
	r, rec, err := newCensusRouter(a)
	if err != nil {
		return nil, err
	}
	gen := workload.ForDevice(seed, r.Dev)
	for placed := 0; placed < 120; {
		src, sink, err := gen.Pair(10)
		if err != nil {
			return nil, err
		}
		inBand := func(p core.Pin) bool {
			return p.Col >= 6 && p.Col <= 34 && p.Col != 12 && p.Col != 18 && p.Col != 26
		}
		if !inBand(src) || !inBand(sink) {
			continue
		}
		if r.RouteNet(src, sink) == nil {
			placed++
		}
	}
	type pipe struct {
		add   *cores.ConstAdder
		sites [2][2]int
		at    int
	}
	var pipes []*pipe
	for i := 0; i < 6; i++ {
		row := 4 + 9*i
		add, err := cores.NewConstAdder(fmt.Sprintf("add%d", i), 8, 5, false)
		if err != nil {
			return nil, err
		}
		reg, err := cores.NewRegister(fmt.Sprintf("reg%d", i), 8)
		if err != nil {
			return nil, err
		}
		p := &pipe{add: add, sites: [2][2]int{{row, 12}, {row + 2, 18}}}
		for _, step := range []func() error{
			func() error { return add.Place(row, 12) },
			func() error { return add.Implement(r) },
			func() error { return reg.Place(row, 26) },
			func() error { return reg.Implement(r) },
			func() error { return r.RouteBus(add.Group("sum").EndPoints(), reg.Group("d").EndPoints()) },
		} {
			if err := step(); err != nil {
				return nil, err
			}
		}
		pipes = append(pipes, p)
	}
	rec.do(func() error { return nil })
	rec.ops = nil // the build-up is not an op of the loop
	for i := 0; i < swaps; i++ {
		p := pipes[i%len(pipes)]
		to := p.sites[1-p.at]
		k := uint64(i*37+11) % 256
		rec.do(func() error {
			return cores.Replace(r, p.add, to[0], to[1], []string{"sum"},
				func() error { return p.add.SetConstant(r, k) })
		})
		p.at = 1 - p.at
	}
	return rec.ops, rec.fail
}

// census runs the generator's scripts on one family, seeds from 1000 up.
func census(a *arch.Arch) (censusOps, error) {
	var all censusOps
	add := func(ops censusOps, err error) error {
		all = append(all, ops...)
		return err
	}
	for s := int64(1000); s < 1004; s++ {
		if err := add(pairScript(a, s, 2500, 300)); err != nil {
			return nil, fmt.Errorf("pair script %d: %w", s, err)
		}
	}
	for s := int64(1100); s < 1130; s++ {
		if err := add(fanScript(a, s)); err != nil {
			return nil, fmt.Errorf("fan script %d: %w", s, err)
		}
	}
	if err := add(batchScript(a, 1200, 6)); err != nil {
		return nil, fmt.Errorf("batch script: %w", err)
	}
	if err := add(swapScript(a, 1300, 128)); err != nil {
		return nil, fmt.Errorf("swap script: %w", err)
	}
	return all, nil
}

// packPlanes weighs every two pairs by how many (op, column) sets hold
// both, merges the heaviest-linked groups greedily while a group fits a
// byte, then packs the groups into planes of eight, first fit by size,
// topping each plane up with pairs no group holds in enumeration order.
func packPlanes(a *arch.Arch, ops censusOps) [][]int {
	pairs := a.PIPPairs()
	idx := map[[2]arch.Wire]int{}
	for i, p := range pairs {
		idx[p] = i
	}
	type link struct{ i, j int }
	weight := map[link]int{}
	var col []int
	flush := func() {
		slices.Sort(col)
		col = slices.Compact(col)
		for x := range col {
			for y := x + 1; y < len(col); y++ {
				weight[link{col[x], col[y]}]++
			}
		}
		col = col[:0]
	}
	for _, op := range ops {
		for k, p := range op {
			if k > 0 && p.Col != op[k-1].Col {
				flush()
			}
			col = append(col, idx[[2]arch.Wire{p.From, p.To}])
		}
		flush()
	}
	links := make([]link, 0, len(weight))
	for l := range weight {
		links = append(links, l)
	}
	slices.SortFunc(links, func(x, y link) int {
		if d := weight[y] - weight[x]; d != 0 {
			return d
		}
		if x.i != y.i {
			return x.i - y.i
		}
		return x.j - y.j
	})
	// Groups by leader, the group's smallest pair index.
	leader := make([]int, len(pairs))
	group := make([][]int, len(pairs))
	for i := range pairs {
		leader[i], group[i] = i, []int{i}
	}
	for _, l := range links {
		li, lj := leader[l.i], leader[l.j]
		if li == lj || len(group[li])+len(group[lj]) > 8 {
			continue
		}
		if lj < li {
			li, lj = lj, li
		}
		for _, m := range group[lj] {
			leader[m] = li
		}
		group[li], group[lj] = append(group[li], group[lj]...), nil
	}
	var groups [][]int
	for _, g := range group {
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	slices.SortStableFunc(groups, func(x, y []int) int { return len(y) - len(x) })
	var planes [][]int
	listed := make([]bool, len(pairs))
	for _, g := range groups {
		k := slices.IndexFunc(planes, func(p []int) bool { return len(p)+len(g) <= 8 })
		if k < 0 {
			k, planes = len(planes), append(planes, nil)
		}
		planes[k] = append(planes[k], g...)
		for _, i := range g {
			listed[i] = true
		}
	}
	next := 0
	for k := range planes {
		for ; len(planes[k]) < 8; next++ {
			if !listed[next] {
				planes[k] = append(planes[k], next)
			}
		}
	}
	return planes
}

// planeFile renders a table the way internal/arch reads it.
func planeFile(a *arch.Arch, planes [][]int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# PIP bit planes of %s, one byte plane a line, as indices into the\n", a.Name)
	fmt.Fprintf(&b, "# wire-order pair enumeration whose hash follows. Generated by\n")
	fmt.Fprintf(&b, "# go test ./internal/scenario -run TestCensusPlanes -update; do not edit.\n")
	fmt.Fprintf(&b, "pairs=%016x\n", arch.HashPairs(a.PIPPairs()))
	for _, p := range planes {
		s := make([]string, len(p))
		for i, x := range p {
			s[i] = fmt.Sprint(x)
		}
		b.WriteString(strings.Join(s, " ") + "\n")
	}
	return b.Bytes()
}

// TestCensusPlanes regenerates the plane tables. It routes for about a
// minute, so it runs only under -update.
func TestCensusPlanes(t *testing.T) {
	if !*update {
		t.Skip("the census routes for a minute; run it with -update")
	}
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		ops, err := census(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		path := filepath.Join("..", "arch", "planes", a.Name+".txt")
		if err := os.WriteFile(path, planeFile(a, packPlanes(a, ops)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s from %d ops", path, len(ops))
	}
}

// framesOf counts the frames ops ship when pair p sits at bit bit(p): one
// per distinct (column, byte plane) of each op.
func framesOf(ops censusOps, bit func(from, to arch.Wire) int) int {
	n := 0
	seen := map[[2]int]bool{}
	for _, op := range ops {
		clear(seen)
		for _, p := range op {
			seen[[2]int{p.Col, bit(p.From, p.To) >> 3}] = true
		}
		n += len(seen)
	}
	return n
}

// TestCensusLayoutShipsFewerFrames routes a held-out pair script and
// counts, from its PIP lists alone, the frames it would ship under the
// census order the decoder derives and under plain enumeration order.
func TestCensusLayoutShipsFewerFrames(t *testing.T) {
	a := arch.NewVirtex()
	ops, err := pairScript(a, 7, 600, 100)
	if err != nil {
		t.Fatal(err)
	}
	enum := map[[2]arch.Wire]int{}
	for i, p := range a.PIPPairs() {
		enum[p] = i
	}
	dec := oracle.NewDecoder(a)
	census := framesOf(ops, func(f, to arch.Wire) int { b, _ := dec.PairBit(f, to); return b })
	plain := framesOf(ops, func(f, to arch.Wire) int { return enum[[2]arch.Wire{f, to}] })
	t.Logf("%d ops: %d frames census order, %d enumeration order (%.3f)",
		len(ops), census, plain, float64(census)/float64(plain))
	if float64(census) > 0.8*float64(plain) {
		t.Errorf("census order ships %d frames, more than 0.8 x enumeration order's %d", census, plain)
	}
}
