package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// ripPair is a Router and the reference model driven through one script.
type ripPair struct {
	t        *testing.T
	a        *Router
	b        *refRouter
	pa, pb   []*Port // the same ports, one set per router
	pendA    [][]*Connection
	pendB    [][]*Connection
	journal  []SeqRecord // a.TakeDelta applied op by op
	blindHit int         // rip-ups where only the traceAll scan agreed
	ripped   int         // records ripped over the whole script
}

const ripRows, ripCols = 16, 24

var (
	ripOuts    = [4]arch.Wire{arch.S0X, arch.S0Y, arch.S1X, arch.S1YQ}
	ripIns     = [4]arch.Wire{arch.S0F1, arch.S0G2, arch.S1F3, arch.S1G4}
	ripTmpl, _ = ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
)

func newRipPair(t *testing.T) *ripPair {
	mk := func() (*Router, []*Port) {
		d, err := device.New(arch.NewVirtex(), ripRows, ripCols)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGroup("g")
		var ports []*Port
		for i := 0; i < 4; i++ {
			p := g.NewPort(fmt.Sprintf("p%d", i), Out)
			// Not one of ripOuts, so the script's pin nets and port nets
			// keep to separate sources.
			if err := p.Bind(NewPin(2+3*i, 3+5*i, arch.S1XQ)); err != nil {
				t.Fatal(err)
			}
			ports = append(ports, p)
		}
		return New(d), ports
	}
	p := &ripPair{t: t}
	p.a, p.pa = mk()
	rb, pb := mk()
	p.b, p.pb = &refRouter{Router: rb}, pb
	return p
}

// render prints a record with ports by name, so records of the two routers
// compare by value.
func render(c *Connection) string {
	ep := func(e EndPoint) string {
		if p, ok := e.(*Port); ok {
			return "port:" + p.String()
		}
		return fmt.Sprint(e)
	}
	s := ep(c.Source) + " ->"
	for _, k := range c.Sinks {
		s += " " + ep(k)
	}
	return fmt.Sprintf("%s path=%v src=%v sinks=%v retired=%v", s, c.Path, c.srcPin, c.sinkPins, c.retired)
}

func renderAll(cs []*Connection) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = render(c)
	}
	return out
}

// both runs one op on each router and requires the same outcome.
func (p *ripPair) both(what string, fa, fb func() error) bool {
	ea, eb := fa(), fb()
	p.b.sync()
	if (ea == nil) != (eb == nil) {
		p.t.Fatalf("%s: router says %v, reference says %v", what, ea, eb)
	}
	return ea == nil
}

// applyDelta folds one TakeDelta into the shadow journal the way a consumer
// must: upserts by sequence number, new numbers at the back, then retires.
func (p *ripPair) applyDelta(d Delta) {
	for _, u := range d.Upserted {
		at := -1
		for i := range p.journal {
			if p.journal[i].Seq == u.Seq {
				at = i
			}
		}
		if at >= 0 {
			p.journal[at] = u
			continue
		}
		if n := len(p.journal); n > 0 && p.journal[n-1].Seq > u.Seq {
			p.t.Fatalf("delta upserts new record %d behind %d", u.Seq, p.journal[n-1].Seq)
		}
		p.journal = append(p.journal, u)
	}
	for _, g := range d.Retired {
		for i := range p.journal {
			if p.journal[i].Seq == g.Seq {
				p.journal = append(p.journal[:i], p.journal[i+1:]...)
				break
			}
		}
	}
}

// check compares everything the two routers expose after an op.
func (p *ripPair) check(what string) {
	t := p.t
	if a, b := renderAll(p.a.Connections()), renderAll(p.b.conns); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live records diverge\nrouter:    %v\nreference: %v", what, a, b)
	}
	if n := p.a.ConnectionCount(); n != len(p.b.conns) {
		t.Fatalf("%s: ConnectionCount %d, reference holds %d", what, n, len(p.b.conns))
	}
	snap := p.a.SnapshotConnections()
	if ref := p.b.snapshot(); !reflect.DeepEqual(snap, ref) {
		t.Fatalf("%s: snapshots diverge\nrouter:    %v\nreference: %v", what, snap, ref)
	}
	p.applyDelta(p.a.TakeDelta())
	got := make([]ConnectionRecord, len(p.journal))
	for i, e := range p.journal {
		got[i] = e.ConnectionRecord
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("%s: deltas add up to\n%v\nbut the snapshot is\n%v", what, got, snap)
	}
	for i := range p.pa {
		a, b := renderAll(p.a.RememberedConnections(p.pa[i])), renderAll(p.b.RememberedConnections(p.pb[i]))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: port %d memory diverges\nrouter:    %v\nreference: %v", what, i, a, b)
		}
	}
	if a, b := p.a.Dev.AllOnPIPs(), p.b.Dev.AllOnPIPs(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: on-PIPs diverge\nrouter:    %v\nreference: %v", what, a, b)
	}
	sa, sb := p.a.Stats(), p.b.Stats()
	sa.RecordsVisited, sb.RecordsVisited = 0, 0
	if sa != sb {
		t.Fatalf("%s: stats diverge\nrouter:    %+v\nreference: %+v", what, sa, sb)
	}
}

// unrecorded reports whether some live net of the reference holds an on-PIP
// that is in no live record's Path — the one state in which the parent's
// path-based scan and the fabric disagree (see refRouter.traceAll).
func (p *ripPair) unrecorded() bool {
	inPath := map[device.PIP]bool{}
	for _, c := range p.b.conns {
		if len(c.Path) == 0 {
			return true // a path-less record vouches for nothing
		}
		for _, q := range c.Path {
			inPath[q] = true
		}
	}
	for _, c := range p.b.conns {
		net, err := p.b.Trace(c.Source)
		if err != nil {
			return true
		}
		for _, q := range net.PIPs {
			if !inPath[q] {
				return true
			}
		}
	}
	return false
}

// ripUp is the op under test: the reference decides first, both ways, and
// the router must agree with the fabric-true decision always and with the
// parent's verbatim one wherever the parent could see the whole net.
func (p *ripPair) ripUp(row, col, h, w int) {
	t := p.t
	what := fmt.Sprintf("rip-up (%d,%d) %dx%d", row, col, h, w)
	rip, srcs, err := p.b.scanRegion(row, col, h, w)
	if err != nil {
		t.Fatalf("%s: reference scan: %v", what, err)
	}
	p.b.traceAll = true
	ripT, srcsT, err := p.b.scanRegion(row, col, h, w)
	p.b.traceAll = false
	if err != nil {
		t.Fatalf("%s: reference traced scan: %v", what, err)
	}
	if !reflect.DeepEqual(renderAll(rip), renderAll(ripT)) {
		if !p.unrecorded() {
			t.Fatalf("%s: the parent's scan rips %v, tracing every record rips %v, and no net has an unrecorded PIP",
				what, renderAll(rip), renderAll(ripT))
		}
		p.blindHit++
		rip, srcs = ripT, srcsT
	}
	want := renderAll(rip) // before anything retires
	var gotA, gotB []*Connection
	p.both(what,
		func() (err error) { gotA, err = p.a.RipUpRegion(row, col, h, w); return },
		func() (err error) { gotB, err = p.b.ripUp(rip, srcs); return })
	for _, c := range gotA {
		if !c.retired {
			t.Fatalf("%s: returned a live record: %s", what, render(c))
		}
		c.retired = false // want was rendered live
	}
	if got := renderAll(gotA); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ripped lists diverge\nrouter:    %v\nreference: %v", what, got, want)
	}
	for _, c := range gotA {
		c.retired = true
	}
	p.ripped += len(gotA)
	if len(gotA) > 0 {
		p.pendA, p.pendB = append(p.pendA, gotA), append(p.pendB, gotB)
	}
}

// run decodes data six bytes an op and drives the pair, checking after each.
func (p *ripPair) run(data []byte) {
	for i, step := 0, 0; i+6 <= len(data) && step < 64; i, step = i+6, step+1 {
		k, a, b, c, d, e := data[i], int(data[i+1]), int(data[i+2]), int(data[i+3]), int(data[i+4]), int(data[i+5])
		src := NewPin(a%ripRows, b%ripCols, ripOuts[e%4])
		sink := NewPin(c%ripRows, d%ripCols, ripIns[(e>>2)%4])
		what := fmt.Sprintf("step %d kind %d", step, k%10)
		switch k % 10 {
		case 0, 1:
			p.both(what, func() error { return p.a.RouteNet(src, sink) }, func() error { return p.b.RouteNet(src, sink) })
		case 2:
			sinks := []EndPoint{sink, NewPin((c+3)%ripRows, (d+2)%ripCols, ripIns[(e>>4)%4])}
			p.both(what, func() error { return p.a.RouteFanout(src, sinks) }, func() error { return p.b.RouteFanout(src, sinks) })
		case 3:
			p.both(what, func() error { return p.a.Unroute(src) }, func() error { return p.b.Unroute(src) })
		case 4:
			p.both(what, func() error { return p.a.ReverseUnroute(sink) }, func() error { return p.b.ReverseUnroute(sink) })
		case 5:
			p.ripUp(a%ripRows, b%ripCols, 1+c%5, 1+d%6)
		case 6:
			if len(p.pendA) == 0 {
				continue
			}
			ra, rb := p.pendA[0], p.pendB[0]
			p.pendA, p.pendB = p.pendA[1:], p.pendB[1:]
			for j := range ra {
				p.both(what, func() error { return p.a.RestoreConnection(ra[j]) }, func() error { return p.b.RestoreConnection(rb[j]) })
			}
		case 7:
			qa, qb := p.pa[a%len(p.pa)], p.pb[a%len(p.pb)]
			switch e % 3 {
			case 0:
				p.both(what, func() error { return p.a.RouteNet(qa, sink) }, func() error { return p.b.RouteNet(qb, sink) })
			case 1:
				p.both(what, func() error { return p.a.Unroute(qa) }, func() error { return p.b.Unroute(qb) })
			case 2:
				p.both(what, func() error { return p.a.Reconnect(qa) }, func() error { return p.b.Reconnect(qb) })
			}
		case 8:
			// A clock tap and the three manual levels, each recorded: a
			// feedback PIP (S0F1 until this op could succeed), a hand-built stub S0X -> Out[0] -> SingleEast[0]
			// (S1X: 4) sunk at a routing wire, and the §3.1 template. Bit 4
			// picks path or template, so e < 16 does what it did before
			// the last two were added.
			switch e%2 + (e>>4)%2*2 {
			case 0:
				clk := NewPin(c%ripRows, d%ripCols, arch.S0CLK)
				p.both(what, func() error { return p.a.RouteClock(a%4, clk) }, func() error { return p.b.RouteClock(a%4, clk) })
			case 1:
				fb := [4]arch.Wire{1: arch.S1F2, 3: arch.S1F4}[e%4] // a feedback input src reaches
				p.both(what, func() error { return p.a.Route(src.Row, src.Col, src.W, fb) },
					func() error { return p.b.Route(src.Row, src.Col, src.W, fb) })
			case 2:
				k := 2 * (e % 4)
				stub := NewPath(src.Row, src.Col, []arch.Wire{src.W, arch.Out(k), p.a.Dev.A.Single(arch.East, k)})
				p.both(what, func() error { return p.a.RoutePath(stub) }, func() error { return p.b.RoutePath(stub) })
			case 3:
				p.both(what, func() error { return p.a.RouteTemplate(src, sink.W, ripTmpl) },
					func() error { return p.b.RouteTemplate(src, sink.W, ripTmpl) })
			}
		case 9:
			// A path-less record (a peer stripped its path): rip-up must trace it.
			if n := len(p.b.conns); n > 0 {
				for _, c := range []*Connection{p.a.Connections()[a%n], p.b.conns[a%n]} {
					c.Path, c.sinkPins, c.srcPin = nil, nil, Pin{}
				}
				p.a.conns.touch(p.a.Connections()[a%n])
			}
		}
		p.check(what)
	}
	ca, err := p.a.Dev.FullConfig()
	if err != nil {
		p.t.Fatal(err)
	}
	cb, err := p.b.Dev.FullConfig()
	if err != nil {
		p.t.Fatal(err)
	}
	if !reflect.DeepEqual(ca, cb) {
		p.t.Fatal("device bytes diverge at the end of the script")
	}
}

// ripOp encodes one script op for the seeds below.
func ripOp(kind, a, b, c, d, e int) []byte {
	return []byte{byte(kind), byte(a), byte(b), byte(c), byte(d), byte(e)}
}

func ripScript(ops ...[]byte) (out []byte) {
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

// ripSeeds are the cases the issue names, spelled out: each is also a file
// under testdata/fuzz/FuzzRipUpRegion.
var ripSeeds = map[string][]byte{
	// The hex driven west of the region and tapped east of it
	// (TestRipUpRegionSpanCrossing): (5,2) -> (5,8), region the tile (5,5).
	"hex-span": ripScript(ripOp(0, 5, 2, 5, 8, 0), ripOp(5, 5, 5, 0, 0, 0), ripOp(6, 0, 0, 0, 0, 0)),
	// Two records on one source, one inside the region and one clear of it,
	// a third net between them in insertion order.
	"same-source": ripScript(ripOp(0, 7, 7, 8, 9, 0), ripOp(0, 2, 2, 3, 4, 1), ripOp(0, 7, 7, 12, 20, 4),
		ripOp(5, 7, 8, 2, 2, 0), ripOp(6, 0, 0, 0, 0, 0), ripOp(3, 7, 7, 0, 0, 0)),
	// A trunk whose record is dropped by a reverse unroute while a later
	// record still branches off it: the later record inherits it.
	"orphan-trunk": ripScript(ripOp(0, 7, 2, 7, 20, 0), ripOp(0, 7, 2, 9, 14, 4), ripOp(4, 0, 0, 7, 20, 0),
		ripOp(5, 6, 6, 2, 2, 0), ripOp(6, 0, 0, 0, 0, 0)),
	// Path-less record through Trace, then a region over its middle.
	"pathless": ripScript(ripOp(0, 4, 3, 4, 15, 0), ripOp(9, 0, 0, 0, 0, 0), ripOp(5, 3, 8, 2, 2, 0),
		ripOp(6, 0, 0, 0, 0, 0), ripOp(3, 4, 3, 0, 0, 0)),
	// A clock tap and a feedback PIP inside the region. Both were once
	// unrecorded and left alone; now each is a record, ripped and restored.
	"no-record": ripScript(ripOp(8, 1, 0, 6, 6, 0), ripOp(8, 6, 6, 0, 0, 1), ripOp(0, 6, 2, 6, 12, 1),
		ripOp(5, 5, 5, 2, 2, 0), ripOp(6, 0, 0, 0, 0, 0)),
	// Port-sourced nets: rip, reconnect from port memory, fanout, reverse unroute.
	"ports": ripScript(ripOp(7, 0, 0, 6, 10, 0), ripOp(7, 1, 0, 9, 3, 0), ripOp(2, 10, 4, 3, 12, 9),
		ripOp(5, 2, 3, 4, 5, 0), ripOp(7, 0, 0, 0, 0, 2), ripOp(4, 0, 0, 6, 14, 8), ripOp(6, 0, 0, 0, 0, 0),
		ripOp(7, 1, 0, 0, 0, 1), ripOp(5, 0, 0, 4, 5, 0)),
	// Churn: route, unroute, re-route (exact replay), rip twice, restore out of order.
	"churn": ripScript(ripOp(0, 3, 3, 10, 18, 0), ripOp(0, 12, 5, 4, 16, 5), ripOp(3, 3, 3, 0, 0, 0),
		ripOp(0, 3, 3, 10, 18, 0), ripOp(5, 6, 9, 3, 5, 0), ripOp(0, 8, 1, 8, 22, 2), ripOp(5, 8, 10, 0, 1, 0),
		ripOp(6, 0, 0, 0, 0, 0), ripOp(6, 0, 0, 0, 0, 0), ripOp(4, 0, 0, 4, 16, 4)),
	// Two cores' clock taps on one global net, a region over one of them:
	// only that record retires, and the restore puts its tap back.
	"clock-taps": ripScript(ripOp(8, 0, 0, 4, 4, 0), ripOp(8, 0, 0, 10, 12, 0), ripOp(0, 4, 2, 4, 9, 1),
		ripOp(5, 3, 3, 1, 1, 0), ripOp(6, 0, 0, 0, 0, 0), ripOp(5, 9, 11, 1, 1, 0)),
	// The manual levels: a stub path, a template, and a net extended by a
	// feedback PIP, which goes with the net; regions over each, restores,
	// and an unroute of the extended net.
	"manual": ripScript(ripOp(8, 6, 6, 0, 0, 18), ripOp(8, 9, 4, 0, 0, 19), ripOp(0, 3, 14, 5, 18, 3),
		ripOp(8, 3, 14, 0, 0, 3), ripOp(5, 6, 6, 1, 2, 0), ripOp(5, 9, 4, 2, 2, 0), ripOp(6, 0, 0, 0, 0, 0),
		ripOp(5, 3, 13, 1, 2, 0), ripOp(6, 0, 0, 0, 0, 0), ripOp(6, 0, 0, 0, 0, 0), ripOp(3, 3, 14, 0, 0, 3)),
}

// FuzzRipUpRegion holds the keyed connection table and the fabric-read
// rip-up to the parent's list scans (ref_test.go) on fuzzed scripts of
// route / fanout / unroute / reverse-unroute / rip-up / restore / port /
// clock / manual-PIP / strip-path ops on a 16×24 array: identical ripped
// lists in identical order, identical Connections, SnapshotConnections,
// port memory, on-PIPs and work counters after every op, deltas that add
// up to the snapshot, and identical device bytes at the end.
func FuzzRipUpRegion(f *testing.F) {
	for _, s := range ripSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newRipPair(t).run(data)
	})
}

// TestRipSeedsReachTheirCases: the named seeds do what their comments say.
// The orphan-trunk seed used to put the parent's scan and the fabric at
// odds: a reverse unroute dropped the record that routed a trunk another
// record still hangs off, and no record's path held it. The dropped record
// now hands that trunk to the net's next record (both routers do), so no
// seed needs the traced reference, that one included.
func TestRipSeedsReachTheirCases(t *testing.T) {
	for name, s := range ripSeeds {
		p := newRipPair(t)
		p.run(s)
		if p.blindHit != 0 {
			t.Errorf("seed %s: %d rip-ups needed the traced reference, want 0", name, p.blindHit)
		}
		if p.ripped == 0 {
			t.Errorf("seed %s ripped nothing", name)
		}
		t.Logf("seed %s: %d records ripped, %d live at the end, %d PIPs on", name, p.ripped, p.a.ConnectionCount(), p.a.Dev.OnPIPCount())
	}
}

// scalingRouter routes n two-pin nets on a 64×96 array, nearest the tile
// (32,48) first: every tile sources one net to its east neighbour and one
// to its north neighbour, so the nets around (32,48) are the same whatever
// n is and the rest of the device fills up behind them.
func scalingRouter(t *testing.T, n int) *Router {
	t.Helper()
	const rows, cols, r0, c0 = 64, 96, 32, 48
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	r := New(d)
	for ring := 0; r.ConnectionCount() < n; ring++ {
		if ring > cols {
			t.Fatalf("only %d of %d nets fit", r.ConnectionCount(), n)
		}
		for row := r0 - ring; row <= r0+ring; row++ {
			for col := c0 - ring; col <= c0+ring; col++ {
				if max(abs(row-r0), abs(col-c0)) != ring || row < 1 || row >= rows-2 || col < 1 || col >= cols-2 {
					continue
				}
				for _, net := range [2][2]Pin{
					{NewPin(row, col, arch.S0X), NewPin(row, col+1, arch.S0F1)},
					{NewPin(row, col, arch.S1X), NewPin(row+1, col, arch.S1F1)},
				} {
					if r.ConnectionCount() < n {
						if err := r.RouteNet(net[0], net[1]); err != nil {
							t.Fatalf("net %d %v -> %v: %v", r.ConnectionCount(), net[0], net[1], err)
						}
					}
				}
			}
		}
	}
	return r
}

// TestRecordsVisitedIndependentOfSessionSize is ROADMAP item 8's gate as
// counts, not times: with 100 and with 10 000 nets live on 64×96, a route, an
// unroute and a reverse unroute each examine the same constant number of
// connection records, and a region rip-up examines the records of the nets
// it rips, twice each — there are no more of them than tracks the fabric
// scan found over the region — and rips the same nets at both sizes.
func TestRecordsVisitedIndependentOfSessionSize(t *testing.T) {
	type counts struct{ route, unroute, reverse, ripUp, ripped int }
	measure := func(n int) counts {
		r := scalingRouter(t, n)
		visited := func(f func() error) int {
			t.Helper()
			before := r.Stats().RecordsVisited
			if err := f(); err != nil {
				t.Fatalf("%d nets live: %v", n, err)
			}
			return r.Stats().RecordsVisited - before
		}
		var c counts
		// Pins no scalingRouter net uses, beside the centre.
		src, sink := NewPin(32, 48, arch.S0Y), NewPin(33, 50, arch.S0G1)
		c.route = visited(func() error { return r.RouteNet(src, sink) })
		c.unroute = visited(func() error { return r.Unroute(src) })
		c.route += visited(func() error { return r.RouteNet(src, sink) })
		c.reverse = visited(func() error { return r.ReverseUnroute(sink) })
		over := len(r.Dev.AppendTracksOver(nil, 31, 47, 3, 3))
		c.ripUp = visited(func() error {
			ripped, err := r.RipUpRegion(31, 47, 3, 3)
			c.ripped = len(ripped)
			return err
		})
		// Each net here has one record, examined once when its root is
		// looked up and once more by the Unroute that retires it.
		if c.ripped == 0 || c.ripUp != 2*c.ripped || c.ripped > over {
			t.Errorf("%d nets live: rip-up examined %d records to rip %d, with %d tracks over the region", n, c.ripUp, c.ripped, over)
		}
		if got := r.ConnectionCount(); got != n-c.ripped {
			t.Errorf("%d nets live: %d records left after ripping %d", n, got, c.ripped)
		}
		return c
	}
	small := measure(100)
	if want := (counts{route: 0, unroute: 1, reverse: 1, ripUp: small.ripUp, ripped: small.ripped}); small != want {
		t.Errorf("100 nets live: records visited %+v, want %+v", small, want)
	}
	if large := measure(10000); large != small {
		t.Errorf("records visited per op moved with session size: %+v at 100 nets, %+v at 10 000", small, large)
	}
}

// TestEmptyRegionRipUpAllocatesNothing: deciding that nothing crosses a
// region costs no allocation, on a fabric with nets elsewhere.
func TestEmptyRegionRipUpAllocatesNothing(t *testing.T) {
	r := newTestRouter(t, Options{})
	if err := r.RouteNet(NewPin(2, 2, arch.S0X), NewPin(3, 4, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ripped, err := r.RipUpRegion(10, 14, 4, 6); err != nil || len(ripped) != 0 {
			t.Fatalf("ripped %d, %v", len(ripped), err)
		}
	})
	if allocs != 0 {
		t.Errorf("empty-region RipUpRegion allocates %v times", allocs)
	}
}

// TestRipUpRegionPartialFailure: when an Unroute fails part-way through a
// region rip-up, the records already retired come back with the error.
// The parent returned nil there, and a pin-to-pin record, which lives in no
// port's memory, was lost to the caller with its net off the device. The
// failure is a port bound elsewhere since it routed: its record is filed
// where its net is, and its Unroute traces the pin the port names now.
func TestRipUpRegionPartialFailure(t *testing.T) {
	r := newTestRouter(t, Options{})
	bySrc, bySink := NewPin(7, 2, arch.S1X), NewPin(7, 20, arch.S1F1)
	if err := r.RouteNet(bySrc, bySink); err != nil {
		t.Fatal(err)
	}
	port := NewGroup("moved").NewPort("o", Out)
	if err := port.Bind(NewPin(7, 7, arch.S0X)); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(port, NewPin(9, 10, arch.S0G1)); err != nil {
		t.Fatal(err)
	}
	if err := port.Bind(NewPin(13, 3, arch.S0X)); err != nil {
		t.Fatal(err)
	}

	ripped, err := r.RipUpRegion(4, 6, 8, 6)
	if err == nil {
		t.Fatal("rip-up over a net whose port was bound elsewhere succeeded")
	}
	if len(ripped) != 1 || !ripped[0].retired || ripped[0].Source != EndPoint(bySrc) {
		t.Fatalf("failed rip-up returned %v, want the pin record it had retired", renderAll(ripped))
	}
	if err := r.RestoreConnection(ripped[0]); err != nil {
		t.Fatalf("restoring %s: %v", render(ripped[0]), err)
	}
	assertConnected(t, r, bySrc, bySink)
}
