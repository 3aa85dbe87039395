package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// TestRouteNetIsFanoutOfOne: RouteNet and RouteFanout are one body, so a
// point-to-point net routed either way — cold, then torn down and replayed
// from the exact tier — leaves identical bytes, records and counters. The
// one difference between the calls is pin order on a multi-pin sink:
// RouteNet keeps the order the port lists its pins in, RouteFanout routes
// nearest the source first.
func TestRouteNetIsFanoutOfOne(t *testing.T) {
	nets, err := workload.New(3, 16, 24).FanNets(12, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	portSrc := core.NewPin(8, 12, arch.S1YQ)
	near, far := core.NewPin(8, 14, arch.S0F4), core.NewPin(2, 21, arch.S1G4)
	newPort := func(pins ...core.Pin) *core.Port {
		p := core.NewGroup("g").NewPort("d", core.In)
		if err := p.Bind(pins...); err != nil {
			t.Fatal(err)
		}
		return p
	}

	run := func(fan bool) ([]byte, []core.ConnectionRecord, core.Stats) {
		d := newTestDevice(t)
		r := core.New(d)
		route := func(s, k core.EndPoint) error {
			if fan {
				return r.RouteFanout(s, []core.EndPoint{k})
			}
			return r.RouteNet(s, k)
		}
		port := newPort(near, far) // listed nearest first: both calls agree
		for round := 0; round < 2; round++ {
			for _, n := range nets {
				if err := route(n.Src, n.Sinks[0]); err != nil {
					t.Fatalf("fan=%v round %d: %v", fan, round, err)
				}
			}
			if err := route(portSrc, port); err != nil {
				t.Fatalf("fan=%v round %d: port net: %v", fan, round, err)
			}
			if round == 1 {
				break
			}
			for _, n := range nets {
				if err := r.Unroute(n.Src); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Unroute(portSrc); err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := d.FullConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg, r.SnapshotConnections(), r.Stats()
	}
	cfgNet, recsNet, statsNet := run(false)
	cfgFan, recsFan, statsFan := run(true)
	if !bytes.Equal(cfgNet, cfgFan) {
		t.Error("RouteNet and RouteFanout-of-one configure different bytes")
	}
	if !reflect.DeepEqual(recsNet, recsFan) {
		t.Errorf("records differ:\n net %+v\n fan %+v", recsNet, recsFan)
	}
	if statsNet != statsFan {
		t.Errorf("stats differ:\n net %+v\n fan %+v", statsNet, statsFan)
	}
	if statsNet.CacheHits != len(nets)+1 {
		t.Errorf("second round hit the exact tier %d times, want %d", statsNet.CacheHits, len(nets)+1)
	}

	// Pin order on a port that lists its far pin first: the record's path
	// holds each pin's PIPs in the order the pins were routed.
	drives := func(path []device.PIP, p core.Pin) int {
		for i, q := range path {
			if q.Row == p.Row && q.Col == p.Col && q.To == p.W {
				return i
			}
		}
		t.Fatalf("no PIP in the path drives %v", p)
		return -1
	}
	for _, fan := range []bool{false, true} {
		r := core.New(newTestDevice(t))
		port := newPort(far, near)
		if fan {
			err = r.RouteFanout(portSrc, []core.EndPoint{port})
		} else {
			err = r.RouteNet(portSrc, port)
		}
		if err != nil {
			t.Fatal(err)
		}
		path := r.Connections()[0].Path
		if farFirst := drives(path, far) < drives(path, near); farFirst == fan {
			t.Errorf("fan=%v: far pin routed first = %v", fan, farFirst)
		}
	}
}
