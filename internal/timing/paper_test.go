package timing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

// The paper claims the timing model scores: long lines for large bounding
// boxes (§6), dedicated clock nets for low skew (§2), and delay-driven
// routing for critical nets (§3.1, §6). Each test asserts its claim and pins
// the model delays (ns, one decimal) and PIP counts for seed 1; see
// EXPERIMENTS.md B8, B12 and B14.

// blank returns an empty Virtex device.
func blank(t *testing.T, rows, cols int) *device.Device {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// routeScored routes src → sink with a new router on the blank device d,
// returns the sink's model delay, the net's PIPs and whether any of them
// drives a long line, and leaves d blank again.
func routeScored(t *testing.T, d *device.Device, src, sink core.Pin, opts ...core.Option) (delay float64, pips int, long bool) {
	t.Helper()
	r := core.New(d, opts...)
	if err := r.RouteNet(src, sink); err != nil {
		t.Fatalf("%v -> %v: %v", src, sink, err)
	}
	delay, err := Default().SinkDelay(d, sink)
	if err != nil {
		t.Fatal(err)
	}
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.PIPs {
		if k := d.A.ClassOf(p.To).Kind; k == arch.KindLongH || k == arch.KindLongV {
			long = true
		}
	}
	if err := r.Unroute(src); err != nil {
		t.Fatal(err)
	}
	return delay, len(net.PIPs), long
}

func ns(total float64, n int) string { return fmt.Sprintf("%.1f", total/float64(n)) }

// TestPaperB8LongLinesPayOffOnLargeBoxes is §6's "The use of long lines to
// improve the routing of certain nets will be examined." Straight
// horizontal nets of growing span on 32×48 (20 seeded trials a span, half
// aligned to long-line access columns) are routed with long lines off, as
// the paper shipped, and on. Below three hex spans longs are never used and
// change nothing; from 18 on they are used and the mean delay gain grows
// with the span.
func TestPaperB8LongLinesPayOffOnLargeBoxes(t *testing.T) {
	const rows, cols = 32, 48
	d := blank(t, rows, cols)
	rng := rand.New(rand.NewSource(1))
	prevGain := -1.0
	for _, want := range []struct {
		span          int
		trials, longs int
		off, on       string // mean delay, ns
		pipsOff       int
		pipsOn        int
	}{
		{6, 20, 0, "5.8", "5.8", 100, 100},
		{12, 20, 0, "8.2", "8.2", 120, 120},
		{18, 20, 11, "10.6", "9.7", 140, 129},
		{24, 20, 10, "13.0", "11.0", 160, 140},
		{36, 20, 14, "17.8", "11.6", 200, 144},
		{42, 20, 14, "20.2", "12.4", 220, 150},
	} {
		trials, longs, pipsOff, pipsOn := 0, 0, 0, 0
		off, on := 0.0, 0.0
		for trial := 0; trial < 20; trial++ {
			row := rng.Intn(rows)
			col := rng.Intn(cols - want.span)
			if trial%2 == 0 {
				col -= col % 6
				if col+want.span >= cols {
					continue
				}
			}
			src := core.NewPin(row, col, arch.S0X)
			sink := core.NewPin(row, col+want.span, arch.S0F1)
			dOff, pOff, _ := routeScored(t, d, src, sink, core.WithLongLines(false))
			dOn, pOn, long := routeScored(t, d, src, sink, core.WithLongLines(true))
			trials++
			off += dOff
			on += dOn
			pipsOff += pOff
			pipsOn += pOn
			if long {
				longs++
			}
		}
		gain := (off - on) / off
		if (want.span < 18) != (longs == 0) || gain < prevGain {
			t.Errorf("span %d: %d trials used longs, gain %.3f after %.3f", want.span, longs, gain, prevGain)
		}
		prevGain = gain
		if trials != want.trials || longs != want.longs || ns(off, trials) != want.off || ns(on, trials) != want.on ||
			pipsOff != want.pipsOff || pipsOn != want.pipsOn {
			t.Errorf("span %d: %d trials, %d used longs, delay %s → %s ns, PIPs %d → %d; pinned %+v",
				want.span, trials, longs, ns(off, trials), ns(on, trials), pipsOff, pipsOn, want)
		}
	}
}

// TestPaperB12DedicatedClockSkew is §2's dedicated global nets that
// "distribute high-fanout signals with minimal skew", against §6's open
// "skew minimization" on general routing. One signal reaches K spread-out
// CLBs of a 16×24 device over general routing (to BX pins) and over global
// clock 0 (to the clock pins). The dedicated net has zero skew and sets
// only PIPs out of the global clock; general routing has skew at every K.
// Skews and general wires are pinned.
func TestPaperB12DedicatedClockSkew(t *testing.T) {
	const rows, cols = 16, 24
	m := Default()
	for _, want := range []struct {
		k     int
		skew  string // general routing, ns
		wires int    // general routing
	}{
		{4, "14.4", 23},
		{8, "15.6", 27},
		{16, "24.0", 54},
		{32, "22.8", 101},
	} {
		var general, clock []core.EndPoint
		for i := 0; i < want.k; i++ {
			row, col := (i*5)%rows, (i*7)%cols
			general = append(general, core.NewPin(row, col, arch.S0BX))
			clock = append(clock, core.NewPin(row, col, arch.S0CLK))
		}

		d := blank(t, rows, cols)
		r := core.New(d)
		src := core.NewPin(rows/2, cols/2, arch.S0X)
		if err := r.RouteFanout(src, general); err != nil {
			t.Fatalf("K=%d general: %v", want.k, err)
		}
		net, err := r.Trace(src)
		if err != nil {
			t.Fatal(err)
		}
		skew, err := m.Skew(d, net)
		if err != nil {
			t.Fatal(err)
		}
		if s, w := fmt.Sprintf("%.1f", skew), net.WireCount(d); s != want.skew || w != want.wires {
			t.Errorf("K=%d general: skew %s ns over %d wires; pinned %s, %d", want.k, s, w, want.skew, want.wires)
		}

		d = blank(t, rows, cols)
		r = core.New(d)
		if err := r.RouteClock(0, clock...); err != nil {
			t.Fatalf("K=%d clock: %v", want.k, err)
		}
		for _, p := range d.AllOnPIPs() {
			if k := d.A.ClassOf(p.From).Kind; k != arch.KindGClk {
				t.Errorf("K=%d clock: PIP %s is driven by a %v", want.k, d.PIPString(p), k)
			}
		}
		lo, hi := -1.0, -1.0
		for _, s := range clock {
			p := s.Pins()[0]
			delay, err := m.SinkDelay(d, core.NewPin(p.Row, p.Col, p.W))
			if err != nil {
				t.Fatal(err)
			}
			if lo < 0 || delay < lo {
				lo = delay
			}
			hi = max(hi, delay)
		}
		if hi != lo || skew <= 0 {
			t.Errorf("K=%d: dedicated skew %.1f ns, general %.1f ns", want.k, hi-lo, skew)
		}
	}
}

// TestPaperB14TimingDrivenCriticalNets is §3.1's "Because it is not timing
// driven, this algorithm is suitable only for non-critical nets": the
// delay-driven mode routes critical nets automatically. Seeded pairs at
// each Manhattan distance on 32×48, long lines on in both modes, go through
// the default wire-count search and the timing-driven one. At every
// distance the timing-driven mean delay and PIP total are lower. Per pair
// it is not always faster — two pairs come out slower — so the slower
// pairs are pinned along with the means and PIP totals.
func TestPaperB14TimingDrivenCriticalNets(t *testing.T) {
	const rows, cols = 32, 48
	d := blank(t, rows, cols)
	rng := rand.New(rand.NewSource(1))
	for _, want := range []struct {
		dist             int
		pairs, slower    int
		def, tim         string // mean delay, ns
		pipsDef, pipsTim int
	}{
		{4, 18, 0, "5.8", "4.9", 108, 82},
		{8, 12, 1, "8.2", "7.1", 90, 66},
		{16, 10, 1, "11.1", "9.8", 85, 65},
		{24, 3, 0, "14.6", "12.5", 30, 23},
		{36, 4, 0, "20.2", "15.4", 52, 36},
	} {
		pairs, slower, pipsDef, pipsTim := 0, 0, 0, 0
		def, tim := 0.0, 0.0
		for trial := 0; trial < 20; trial++ {
			sr, sc := rng.Intn(rows), rng.Intn(cols)
			dr := rng.Intn(want.dist + 1)
			tr, tc := sr+dr, sc+want.dist-dr
			if tr >= rows || tc >= cols {
				continue
			}
			src := core.NewPin(sr, sc, arch.S0X)
			sink := core.NewPin(tr, tc, arch.S0F1)
			d0, p0, _ := routeScored(t, d, src, sink, core.WithLongLines(true))
			d1, p1, _ := routeScored(t, d, src, sink, core.WithLongLines(true), core.WithTimingDriven(true))
			if d1 > d0 {
				slower++
			}
			pairs++
			def += d0
			tim += d1
			pipsDef += p0
			pipsTim += p1
		}
		if tim >= def || pipsTim >= pipsDef {
			t.Errorf("dist %d: timing-driven %.1f ns over %d PIPs, default %.1f ns over %d",
				want.dist, tim, pipsTim, def, pipsDef)
		}
		if pairs != want.pairs || slower != want.slower || ns(def, pairs) != want.def || ns(tim, pairs) != want.tim ||
			pipsDef != want.pipsDef || pipsTim != want.pipsTim {
			t.Errorf("dist %d: %d pairs, %d slower, delay %s → %s ns, PIPs %d → %d; pinned %+v",
				want.dist, pairs, slower, ns(def, pairs), ns(tim, pairs), pipsDef, pipsTim, want)
		}
	}
}
