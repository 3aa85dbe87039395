package timing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/maze"
)

func rig(t *testing.T) *core.Router {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(d)
}

func TestSinkDelayPaperExample(t *testing.T) {
	r := rig(t)
	a := r.Dev.A
	// The §3.1 route: outmux + 2 singles + input.
	for _, p := range []device.PIP{
		{Row: 5, Col: 7, From: arch.S1YQ, To: arch.Out(1)},
		{Row: 5, Col: 7, From: arch.Out(1), To: a.Single(arch.East, 5)},
		{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)},
		{Row: 6, Col: 8, From: a.Single(arch.South, 0), To: arch.S0F3},
	} {
		if err := r.Route(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatal(err)
		}
	}
	m := Default()
	d, err := m.SinkDelay(r.Dev, core.NewPin(6, 8, arch.S0F3))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.4 + 2*1.2 + 0.6 // out-mux, two singles, an input pin
	if diff := d - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("delay = %v, want %v", d, want)
	}
	if _, err := m.SinkDelay(r.Dev, core.NewPin(1, 1, arch.S0F1)); err == nil {
		t.Error("unrouted sink accepted")
	}
}

func TestHexFasterThanSinglesOverDistance(t *testing.T) {
	single, hex, long := arch.TVEast1.Delay(), arch.TVEast6.Delay(), arch.TVLongH.Delay()
	// Six tiles by hex: one hex hop. By singles: six hops.
	if hex >= 6*single {
		t.Errorf("hex (%v) not faster than six singles (%v)", hex, 6*single)
	}
	if long >= 3*hex {
		t.Errorf("long (%v) not faster than three hexes (%v)", long, 3*hex)
	}
}

func TestNetDelaysAndCritical(t *testing.T) {
	r := rig(t)
	src := core.NewPin(5, 5, arch.S0X)
	near := core.NewPin(5, 7, arch.S0F1)
	far := core.NewPin(12, 20, arch.S1G2)
	if err := r.RouteFanout(src, []core.EndPoint{near, far}); err != nil {
		t.Fatal(err)
	}
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	delays, err := m.NetDelays(r.Dev, net)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 2 {
		t.Fatalf("delays = %v", delays)
	}
	if delays[far] <= delays[near] {
		t.Errorf("far sink (%v) not slower than near sink (%v)", delays[far], delays[near])
	}
	crit, d, err := m.Critical(r.Dev, net)
	if err != nil {
		t.Fatal(err)
	}
	if crit != far || d != delays[far] {
		t.Errorf("critical = %v (%v)", crit, d)
	}
	if _, _, err := m.Critical(r.Dev, &core.Net{}); err == nil {
		t.Error("empty net accepted")
	}
}

func TestSkew(t *testing.T) {
	r := rig(t)
	src := core.NewPin(5, 5, arch.S0X)
	near := core.NewPin(5, 7, arch.S0F1)
	far := core.NewPin(12, 20, arch.S1G2)
	if err := r.RouteFanout(src, []core.EndPoint{near, far}); err != nil {
		t.Fatal(err)
	}
	net, err := r.Trace(src)
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	skew, err := m.Skew(r.Dev, net)
	if err != nil {
		t.Fatal(err)
	}
	delays, _ := m.NetDelays(r.Dev, net)
	want := delays[far] - delays[near]
	if want < 0 {
		want = -want
	}
	if diff := skew - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("skew = %v, want %v", skew, want)
	}
	if _, err := m.Skew(r.Dev, &core.Net{}); err == nil {
		t.Error("empty net accepted")
	}
	// A single-sink net has zero skew.
	r2 := rig(t)
	if err := r2.RouteNet(src, near); err != nil {
		t.Fatal(err)
	}
	n2, _ := r2.Trace(src)
	if s, err := m.Skew(r2.Dev, n2); err != nil || s != 0 {
		t.Errorf("single-sink skew = %v, %v", s, err)
	}
}

func TestPIPDelayKinds(t *testing.T) {
	r := rig(t)
	a := r.Dev.A
	m := Default()
	cases := []struct {
		p    device.PIP
		want float64
	}{
		{device.PIP{Row: 5, Col: 5, From: arch.S0X, To: arch.Out(0)}, 0.4},
		{device.PIP{Row: 5, Col: 5, From: arch.Out(0), To: a.Single(arch.East, 0)}, 1.2},
		{device.PIP{Row: 5, Col: 5, From: arch.Out(0), To: a.Hex(arch.North, 0)}, 2.4},
		{device.PIP{Row: 6, Col: 6, From: arch.Out(0), To: a.LongH(0)}, 3.2},
		{device.PIP{Row: 5, Col: 5, From: a.Single(arch.West, 0), To: arch.S0F1}, 0.6},
		{device.PIP{Row: 5, Col: 5, From: arch.S0X, To: arch.S0F1}, 0.3},
		{device.PIP{Row: 5, Col: 5, From: arch.OutAlias(0), To: arch.S0F1}, 0.3},
		{device.PIP{Row: 5, Col: 5, From: arch.GClk(0), To: arch.S0CLK}, 0.1},
	}
	for _, c := range cases {
		if got := m.PIPDelay(a, c.p); got != c.want {
			t.Errorf("PIPDelay(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestDelaySearchCostIsTimingDelay: the delay-driven search costs each hop
// what this model says it delays, so a route's search cost is its sink's
// model delay in tenths of a nanosecond. Seeded S0X → S0F1 pairs at
// distances 2–31 on 32×48 Virtex and Kestrel, long lines off and on, are
// searched with maze.AStar{TimingDriven: true}, turned on and scored.
func TestDelaySearchCostIsTimingDelay(t *testing.T) {
	const rows, cols = 32, 48
	m := Default()
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, err := device.New(a, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, longs := range []bool{false, true} {
			rng := rand.New(rand.NewSource(1))
			pairs := 0
			for dist := 2; dist <= 31; dist++ {
				for trial := 0; trial < 6; trial++ {
					sr, sc := rng.Intn(rows), rng.Intn(cols)
					dr := rng.Intn(dist + 1)
					tr, tc := sr+dr, sc+dist-dr
					if tr >= rows || tc >= cols {
						continue
					}
					src, err := d.Canon(sr, sc, arch.S0X)
					if err != nil {
						t.Fatal(err)
					}
					sink, err := d.Canon(tr, tc, arch.S0F1)
					if err != nil {
						t.Fatal(err)
					}
					r, err := maze.AStar(d, []device.Track{src}, sink, maze.Options{TimingDriven: true, UseLongLines: longs})
					if err != nil {
						t.Fatalf("%s longs=%v: %v", a.Name, longs, err)
					}
					for _, p := range r.PIPs {
						if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
							t.Fatal(err)
						}
					}
					delay, err := m.SinkDelay(d, core.NewPin(tr, tc, arch.S0F1))
					if err != nil {
						t.Fatal(err)
					}
					if want := int(math.Round(10 * delay)); r.Cost != want {
						t.Errorf("%s longs=%v (%d,%d) -> (%d,%d): search cost %d, model delay %.1f ns",
							a.Name, longs, sr, sc, tr, tc, r.Cost, delay)
					}
					for i := len(r.PIPs) - 1; i >= 0; i-- {
						p := r.PIPs[i]
						if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
							t.Fatal(err)
						}
					}
					pairs++
				}
			}
			if pairs < 100 {
				t.Errorf("%s longs=%v: only %d pairs on the array", a.Name, longs, pairs)
			}
		}
	}
}
