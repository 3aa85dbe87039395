package maze

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// The two best-first loops the package had before policy.search replaced
// them — search (astar.go, behind AStar and Lee) and negWorker.search with
// negWorker.penalty (negotiate.go) — kept verbatim as reference models, as
// device_test.go keeps refState and bitstream keeps refBitstream. The
// edits are mechanical: what they read from Options methods and negWorker
// fields that no longer exist comes from refKindCost, refAllowKind,
// refAvoids and the fields of refNegWorker, and their arena calls follow
// the arena's API (visit takes the predecessor and the edge's ordinal,
// reconstruct the device), and they compute costs in the arena's int32
// rather than the float64 they were written in: every term is an integer,
// so the values are the same. TestSearchMatchesReference and FuzzSearch hold
// the kernel to them decision for decision: same PIPs, same cost, same
// number of states expanded, an error exactly when the reference has one.

func refKindCost(o Options, k arch.Kind) int {
	if o.TimingDriven {
		return delayCost(k)
	}
	return hopCost(k)
}

func refAllowKind(o Options, k arch.Kind) bool {
	if k == arch.KindLongH || k == arch.KindLongV {
		return o.UseLongLines
	}
	return true
}

func refAvoids(o Options, dev *device.Device, pr, pc int, t device.Track) bool {
	return len(o.Avoid) > 0 && intrudes(dev, o.Avoid, pr, pc, t)
}

func refSearch(dev *device.Device, sources []device.Track, sink device.Track, opt Options, astar bool) (*Route, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("maze: no sources: %w", ErrUnroutable)
	}
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	sinkIdx := dev.TrackIndex(sink)
	if dev.Driven(sinkIdx) {
		return nil, fmt.Errorf("maze: sink %s at (%d,%d) already in use: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}

	// h lower-bounds the remaining cost: covering distance d with hexes
	// (the cheapest per-tile resource) plus a short single tail; with
	// long lines enabled any remaining distance could in principle be a
	// long hop plus a hex. The search is weighted (f = g + 2h), trading
	// optimality for focus — the paper's routers are explicitly greedy.
	hexC := refKindCost(opt, arch.KindHex)
	singleC := refKindCost(opt, arch.KindSingle)
	longC := refKindCost(opt, arch.KindLongH)
	h := func(t device.Track) int32 {
		if !astar {
			return 0
		}
		d := dev.MinTapDistance(t, sinkTile)
		hexes := d / dev.A.HexLen
		tail := d % dev.A.HexLen
		if tail*singleC > 2*hexC {
			tail = 2 * hexC / singleC
		}
		est := hexes*hexC + tail*singleC
		if opt.UseLongLines && est > longC+hexC {
			est = longC + hexC
		}
		return int32(2 * est)
	}
	cost := func(k arch.Kind) int {
		if !astar {
			return 1
		}
		return refKindCost(opt, k)
	}

	ar := getArena(dev.NumTracks())
	defer putArena(ar)

	for _, s := range sources {
		if s == sink {
			return &Route{}, nil // already connected
		}
		si := dev.TrackIndex(s)
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, -1, 0)
		ar.push(heapItem{i: si, g: 0, f: h(s)})
	}

	explored := 0
	maxNodes := opt.maxNodes()
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.cells[it.i].g {
			continue // stale entry
		}
		explored++
		if explored > maxNodes {
			return nil, fmt.Errorf("maze: search exceeded %d states: %w", maxNodes, ErrUnroutable)
		}
		goal := false
		edges, at := dev.EdgesAt(it.i)
		for j, e := range edges {
			target := e.Target(at)
			ti := dev.TrackIndex(target)
			if ti != sinkIdx {
				if !refAllowKind(opt, e.Kind) {
					continue
				}
				// Do not route through CLB pins: they are net
				// endpoints, not thoroughfares.
				if e.Kind.IsSink() {
					continue
				}
			}
			if refAvoids(opt, dev, at.Row+int(e.PRow), at.Col+int(e.PCol), target) {
				continue
			}
			if dev.Driven(ti) {
				continue
			}
			ng := it.g + int32(cost(e.Kind))
			if ar.seen(ti) && ar.cells[ti].g <= ng {
				continue
			}
			ar.visit(ti, ng, it.i, j)
			if ti == sinkIdx {
				// Goal: stop (greedy routing: first arrival wins).
				goal = true
				break
			}
			ar.push(heapItem{i: ti, g: ng, f: ng + h(target)})
		}
		if goal {
			return &Route{PIPs: ar.reconstruct(nil, dev, sinkIdx), Cost: int(ar.cells[sinkIdx].g), Explored: explored}, nil
		}
	}
	return nil, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}

// refNegWorker carries what negWorker.search and negWorker.penalty read
// through w and w.st. The loop indexed its arena and congestion table in a
// scope-local space when it was written; the tables are indexed by
// device.TrackIndex now, and so is this copy.
type refNegWorker struct {
	dev     *device.Device
	opt     Options
	cong    *congestion
	presFac int32
	histFac int32
	ar      *arena
	self    *markSet
}

// penalty is the congestion surcharge for occupying track i.
func (w *refNegWorker) penalty(i int32) int32 {
	st := w
	users := st.cong.presentAt(i)
	if w.self.has(i) {
		users-- // our own previous usage does not penalize us
	}
	p := st.cong.historyAt(i) * st.histFac
	if users > 0 {
		p += users * st.presFac
	}
	return p
}

func (w *refNegWorker) search(sources []device.Track, sink device.Track, box rect) ([]device.PIP, int, error) {
	st := w
	dev := st.dev
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	if dev.Driven(dev.TrackIndex(sink)) {
		return nil, 0, fmt.Errorf("maze: sink %s at (%d,%d) already in use on device: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}
	h := func(t device.Track) int32 {
		d := dev.MinTapDistance(t, sinkTile)
		hexes := d / dev.A.HexLen
		tail := d % dev.A.HexLen
		if tail > 2 {
			tail = 2
		}
		return 2 * int32(2*hexes+tail)
	}
	ar := w.ar
	ar.begin()
	sinkIdx := dev.TrackIndex(sink)
	for _, s := range sources {
		if s == sink {
			return nil, 0, nil
		}
		si := dev.TrackIndex(s)
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, -1, 0)
		ar.push(heapItem{i: si, g: 0, f: h(s)})
	}
	explored := 0
	maxNodes := st.opt.maxNodes()
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.cells[it.i].g {
			continue
		}
		explored++
		if explored > maxNodes {
			return nil, explored, fmt.Errorf("maze: negotiation search exceeded %d states: %w", maxNodes, ErrUnroutable)
		}
		goal := false
		edges, at := dev.EdgesAt(it.i)
		for j, e := range edges {
			target := e.Target(at)
			if !box.contains(target.Row, target.Col) {
				continue
			}
			ti := dev.TrackIndex(target)
			if ti != sinkIdx {
				if !refAllowKind(st.opt, e.Kind) {
					continue
				}
				if e.Kind.IsSink() {
					continue
				}
			}
			if refAvoids(st.opt, dev, at.Row+int(e.PRow), at.Col+int(e.PCol), target) {
				continue
			}
			if dev.Driven(ti) {
				continue
			}
			ng := it.g + int32(hopCost(e.Kind)) + w.penalty(ti)
			if ar.seen(ti) && ar.cells[ti].g <= ng {
				continue
			}
			ar.visit(ti, ng, it.i, j)
			if ti == sinkIdx {
				goal = true
				break
			}
			ar.push(heapItem{i: ti, g: ng, f: ng + h(target)})
		}
		if goal {
			return ar.reconstruct(nil, dev, sinkIdx), explored, nil
		}
	}
	return nil, explored, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}

// searchGeoms are the arrays the differential tests search; FuzzSearch
// picks among the first three.
var searchGeoms = []struct {
	arch       func() *arch.Arch
	rows, cols int
}{
	{arch.NewVirtex, 12, 12},
	{arch.NewVirtex, 16, 24},
	{arch.NewKestrel, 16, 24},
	{arch.NewVirtex, 64, 96},
}

// Policy bits of a search script.
const (
	bitLee        = 1 << iota // uniform cost, no heuristic
	bitLongs                  // UseLongLines
	bitDelay                  // TimingDriven
	bitAvoid                  // one avoid rectangle
	bitNetSources             // search from every track of a routed net, not from one pin
	bitNodeCap                // MaxNodes small enough to be hit
	bitNegotiated             // the confined, surcharged form against negWorker.search
	bitForeign                // with bitNegotiated: load outside the box too, as other scopes leave it
)

// searchFabric is a device occupied by a script's routes, and the tracks of
// each of those nets.
type searchFabric struct {
	dev  *device.Device
	nets [][]device.Track
}

func (f *searchFabric) pin(row, col, p byte, out bool) device.Track {
	w := arch.Input(int(p) % arch.NumInputs)
	if out {
		w = arch.OutPin(int(p) % arch.NumOutPins)
	}
	// A pin is its own canonical track on every tile.
	return device.Track{Row: int(row) % f.dev.Rows, Col: int(col) % f.dev.Cols, W: w}
}

// occupy routes a script onto a blank array, five bytes a route: source row
// and col, sink row and col (as an offset of up to eight tiles, so that many
// short routes fit), pins. The reference routes, so that the fabric kernel
// and reference are compared on does not depend on the kernel.
func occupy(t testing.TB, geom int, script []byte) *searchFabric {
	g := searchGeoms[geom]
	dev, err := device.New(g.arch(), g.rows, g.cols)
	if err != nil {
		t.Fatal(err)
	}
	f := &searchFabric{dev: dev}
	for i := 0; len(script) >= 5 && i < 128; i, script = i+1, script[5:] {
		src := f.pin(script[0], script[1], script[4], true)
		sink := f.pin(byte(src.Row+int(script[2])%9), byte(src.Col+int(script[3])%9), script[4]>>3, false)
		r, err := refSearch(dev, []device.Track{src}, sink, Options{UseLongLines: i%2 == 1, MaxNodes: 2000}, true)
		if err != nil {
			continue
		}
		tracks := []device.Track{src}
		for _, p := range r.PIPs {
			if err := dev.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
				t.Fatalf("occupying: %v", err)
			}
			if to, _ := dev.CanonOK(p.Row, p.Col, p.To); !dev.A.ClassOf(to.W).Kind.IsSink() {
				tracks = append(tracks, to)
			}
		}
		f.nets = append(f.nets, tracks)
	}
	return f
}

// searchHead is the part of a script that describes one search: [0] policy
// bits, [1:4] source row, col, pin, [4:7] sink row, col, pin, [7:11] avoid
// row, col, height, width, [11] which routed net to search from.
type searchHead [12]byte

// compare runs the search a head describes through the kernel and through
// the reference.
func (f *searchFabric) compare(t testing.TB, head searchHead) {
	dev, bits := f.dev, head[0]
	opt := Options{UseLongLines: bits&bitLongs != 0, TimingDriven: bits&bitDelay != 0}
	if bits&bitAvoid != 0 {
		opt.Avoid = []Rect{{Row: int(head[7]) % dev.Rows, Col: int(head[8]) % dev.Cols, Height: 1 + int(head[9])%6, Width: 1 + int(head[10])%6}}
	}
	// A sink that cannot be reached costs the whole cap, twice: keep it low.
	opt.MaxNodes = 6000
	if bits&bitNodeCap != 0 {
		opt.MaxNodes = 40
	}
	sources := []device.Track{f.pin(head[1], head[2], head[3], true)}
	if bits&bitNetSources != 0 && len(f.nets) > 0 {
		sources = f.nets[int(head[11])%len(f.nets)]
	}
	sink := f.pin(head[4], head[5], head[6], false)
	if bits&bitLee != 0 {
		// Unguided, only a sink a few tiles away is found within the cap.
		sink = f.pin(byte(sources[0].Row+int(head[4])%5), byte(sources[0].Col+int(head[5])%5), head[6], false)
	}

	if bits&bitNegotiated == 0 {
		lee, kernel := bits&bitLee != 0, AStar
		if lee {
			kernel = Lee
		}
		r, gerr := kernel(dev, sources, sink, opt)
		want, werr := refSearch(dev, sources, sink, opt, !lee)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("kernel error %v, reference error %v", gerr, werr)
		}
		if gerr == nil && (!slices.Equal(r.PIPs, want.PIPs) || r.Cost != want.Cost || r.Explored != want.Explored) {
			t.Fatalf("kernel %d PIPs cost %d explored %d, reference %d PIPs cost %d explored %d\n%v\n%v",
				len(r.PIPs), r.Cost, r.Explored, len(want.PIPs), want.Cost, want.Explored, r.PIPs, want.PIPs)
		}
		return
	}

	// The negotiated form: a box around the endpoints and a congestion
	// snapshot of integer history and present factor, as a scope's merges
	// leave them. With bitForeign the device-wide table also carries load on
	// tracks outside the box, as the other scopes of a call leave it there;
	// the kernel must not read it, or scopes could not share one table.
	// Load is drawn by index slot, read back through TrackAt: a wire number
	// drawn at random may name an alias, which has no slot.
	box := netBox(dev, sink, sources, 2*dev.A.HexLen) // around all of them, whichever is called the source
	slots := dev.NumTracks() / (dev.Rows * dev.Cols)
	rng := rand.New(rand.NewSource(int64(head[11])<<8 | int64(bits)))
	track := func(row, col int) device.Track {
		return dev.TrackAt(int32((row*dev.Cols+col)*slots + rng.Intn(slots)))
	}
	cong, self := getCongestion(dev.NumTracks()), getMarkSet(dev.NumTracks())
	defer putCongestion(cong)
	defer putMarkSet(self)
	self.reset()
	for i := box.rows() * box.cols() * slots / 2; i > 0; i-- {
		k := dev.TrackIndex(track(box.r0+rng.Intn(box.rows()), box.c0+rng.Intn(box.cols())))
		switch rng.Intn(4) {
		case 0:
			cong.addPresent(k, int32(1+rng.Intn(3)))
		case 1:
			self.add(k)
			cong.addPresent(k, int32(1+rng.Intn(2)))
		default:
			cong.addHistory(k, int32(1+rng.Intn(3)))
		}
	}
	if bits&bitForeign != 0 {
		for i := dev.Rows * dev.Cols * slots / 8; i > 0; i-- {
			t := track(rng.Intn(dev.Rows), rng.Intn(dev.Cols))
			if box.contains(t.Row, t.Col) {
				continue
			}
			k := dev.TrackIndex(t)
			cong.addPresent(k, int32(1+rng.Intn(3)))
			cong.addHistory(k, int32(1+rng.Intn(100)))
		}
	}
	presFac := presentFactor * int32(head[11]%4)
	ref := refNegWorker{dev: dev, opt: opt, cong: cong, presFac: presFac, histFac: historyFactor,
		ar: getArena(dev.NumTracks()), self: self}
	defer putArena(ref.ar)
	want, wantExplored, werr := ref.search(sources, sink, box)

	p := opt.negotiated(cong)
	p.self, p.box, p.presFac = self, box, presFac
	ar := getArena(dev.NumTracks())
	defer putArena(ar)
	r, gerr := p.search(dev, ar, sources, sink, nil)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("negotiated: kernel error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !slices.Equal(r.PIPs, want) || r.Explored != wantExplored {
		t.Fatalf("negotiated: kernel %d PIPs explored %d, reference %d PIPs explored %d\n%v\n%v",
			len(r.PIPs), r.Explored, len(want), wantExplored, r.PIPs, want)
	}
	if k := dev.TrackIndex(sink); len(want) > 0 && ar.cells[k].g != ref.ar.cells[k].g {
		t.Fatalf("negotiated: kernel reaches the sink at g=%v, reference at g=%v", ar.cells[k].g, ref.ar.cells[k].g)
	}
}

// TestSearchMatchesReference holds policy.search to the two loops it
// replaced, on Virtex and Kestrel at 16×24 and Virtex at 64×96, each array
// occupied by seeded random routes: {A*, A*+longs, delay, delay+longs, Lee,
// Lee+longs} × {no avoid, one avoid rectangle} × {one source, a net's tracks
// as sources}, each also with a node cap low enough to be hit, and the
// negotiated form × {longs} × {avoid} × {load inside the box only, load
// outside it too}. Caught by it, for one each: the long-line cap applied without
// UseLongLines (single-net rows); the box tested against the PIP's tile
// instead of the target's canonical tile (negotiated rows).
func TestSearchMatchesReference(t *testing.T) {
	var policies []byte
	for _, model := range []byte{0, bitLongs, bitDelay, bitDelay | bitLongs, bitLee, bitLee | bitLongs} {
		for _, avoid := range []byte{0, bitAvoid} {
			for _, from := range []byte{0, bitNetSources} {
				policies = append(policies, model|avoid|from, model|avoid|from|bitNodeCap)
			}
		}
	}
	for _, neg := range []byte{bitNegotiated, bitNegotiated | bitForeign} {
		for _, longs := range []byte{0, bitLongs} {
			for _, avoid := range []byte{0, bitAvoid} {
				policies = append(policies, neg|longs|avoid|bitNetSources, neg|longs|avoid)
			}
		}
	}
	for geom := 1; geom < len(searchGeoms); geom++ {
		g := searchGeoms[geom]
		if RaceEnabled && g.rows > 16 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(geom)))
		script := make([]byte, 5*min(g.rows*g.cols/12, 128))
		rng.Read(script)
		f := occupy(t, geom, script)
		cases := 4
		if g.rows > 16 {
			cases = 1 // the large array is there for scale, not for variety
		}
		for _, bits := range policies {
			t.Run(fmt.Sprintf("%s-%dx%d/bits=%02x", g.arch().Name, g.rows, g.cols, bits), func(t *testing.T) {
				for c := 0; c < cases; c++ {
					var head searchHead
					rng.Read(head[:])
					head[0] = bits
					f.compare(t, head)
				}
			})
		}
	}
}

// FuzzSearch lets the fuzzer pick the array (one of the three small ones),
// the policy bits and endpoints, and the occupancy script, and compares
// kernel and reference on the search they describe.
func FuzzSearch(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, bits := range []byte{0, bitLongs | bitNetSources, bitDelay | bitAvoid, bitLee, bitNodeCap,
		bitNegotiated, bitNegotiated | bitForeign | bitLongs | bitNetSources, bitNegotiated | bitAvoid} {
		script := make([]byte, 13+5*12)
		rng.Read(script)
		script[0], script[1] = byte(i), bits
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var head [13]byte
		script = script[copy(head[:], script):]
		occupy(t, int(head[0])%3, script).compare(t, searchHead(head[1:]))
	})
}

// refBestCutOnAxis is bestCutOnAxis as it was before it counted box ends:
// every net tested at every cut position, verbatim.
func refBestCutOnAxis(rc rect, boxes []rect, nets []int, axis int) cutStats {
	lo, hi := rc.r0, rc.r1
	if axis == 1 {
		lo, hi = rc.c0, rc.c1
	}
	best := cutStats{axis: axis}
	for p := lo + 1; p <= hi; p++ {
		crossing, left, right := 0, 0, 0
		for _, i := range nets {
			b := boxes[i]
			b0, b1 := b.r0, b.r1
			if axis == 1 {
				b0, b1 = b.c0, b.c1
			}
			switch {
			case b1 < p:
				left++
			case b0 >= p:
				right++
			default:
				crossing++
			}
		}
		bal := left - right
		if bal < 0 {
			bal = -bal
		}
		cand := cutStats{axis: axis, pos: p, crossing: crossing, balance: bal, ok: true}
		if !best.ok || cand.crossing < best.crossing ||
			(cand.crossing == best.crossing && cand.balance < best.balance) {
			best = cand
		}
	}
	return best
}

// TestCutCountMatchesReference holds the counting cut to the scan it
// replaced on both axes, over seeded random regions and box sets: boxes
// small and large, inside the region, hanging over its edges and wholly
// outside it, with many equal ends so ties decide, and regions one tile
// thin, where there is no cut. One scratch serves every draw, as one
// negotiation's bisection reuses it.
func TestCutCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s negScratch
	for draw := 0; draw < 2000; draw++ {
		rc := rect{r0: rng.Intn(20), c0: rng.Intn(20)}
		rc.r1, rc.c1 = rc.r0+rng.Intn(30), rc.c0+rng.Intn(30)
		boxes := make([]rect, 1+rng.Intn(40))
		nets := make([]int, 0, len(boxes))
		for i := range boxes {
			// Ends drawn from a few values around the region, so many are equal.
			end := func(lo, hi int) int { return lo - 3 + 3*rng.Intn((hi-lo+9)/3) }
			r0, r1 := end(rc.r0, rc.r1), end(rc.r0, rc.r1)
			c0, c1 := end(rc.c0, rc.c1), end(rc.c0, rc.c1)
			boxes[i] = rect{min(r0, r1), min(c0, c1), max(r0, r1), max(c0, c1)}
			if rng.Intn(4) > 0 {
				nets = append(nets, i)
			}
		}
		for axis := range 2 {
			if got, want := s.bestCutOnAxis(rc, boxes, nets, axis), refBestCutOnAxis(rc, boxes, nets, axis); got != want {
				t.Fatalf("draw %d, region %v, axis %d, boxes %v of %v: counted %+v, scanned %+v",
					draw, rc, axis, nets, boxes, got, want)
			}
		}
	}
}
