package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func TestStringers(t *testing.T) {
	p := NewPin(5, 7, arch.S1YQ)
	if s := p.String(); !strings.Contains(s, "(5,7)") {
		t.Errorf("Pin.String = %q", s)
	}
	g := NewGroup("adder.out")
	port := g.NewPort("bit0", Out)
	if s := port.String(); s != "adder.out.bit0" {
		t.Errorf("Port.String = %q", s)
	}
	loose := &Port{name: "x"}
	if s := loose.String(); s != "x" {
		t.Errorf("groupless Port.String = %q", s)
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Error("PortDir strings")
	}
	path := NewPath(5, 7, []arch.Wire{arch.S1YQ, arch.Out(1)})
	if s := path.String(); !strings.Contains(s, "(5,7)") || !strings.Contains(s, "->") {
		t.Errorf("Path.String = %q", s)
	}
}

func TestPortAccessors(t *testing.T) {
	g := NewGroup("g")
	p := g.NewPort("p0", In)
	if p.Name() != "p0" {
		t.Error("Name")
	}
	if p.Bound() {
		t.Error("unbound port reports bound")
	}
	if err := p.Bind(NewPin(1, 1, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	if !p.Bound() {
		t.Error("bound port reports unbound")
	}
	ports := g.Ports()
	if len(ports) != 1 || ports[0] != p {
		t.Errorf("Ports = %v", ports)
	}
	eps := g.EndPoints()
	if len(eps) != 1 || eps[0] != EndPoint(p) {
		t.Errorf("EndPoints = %v", eps)
	}
}

func TestUnrouteAll(t *testing.T) {
	r := newTestRouter(t, Options{})
	// A few nets, including fanout.
	if err := r.RouteNet(NewPin(2, 2, arch.S0X), NewPin(6, 6, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteFanout(NewPin(9, 9, arch.S0X), []EndPoint{
		NewPin(11, 12, arch.S0F1), NewPin(7, 13, arch.S1G2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteClock(0, NewPin(3, 3, arch.S0CLK)); err != nil {
		t.Fatal(err)
	}
	if r.UsedTracks() == 0 {
		t.Fatal("nothing routed")
	}
	if err := r.UnrouteAll(); err != nil {
		t.Fatal(err)
	}
	if n := r.UsedTracks(); n != 0 {
		t.Errorf("%d tracks used after UnrouteAll", n)
	}
	// Idempotent on an empty device.
	if err := r.UnrouteAll(); err != nil {
		t.Errorf("UnrouteAll on empty device: %v", err)
	}
}

func TestEndPointEqual(t *testing.T) {
	g := NewGroup("g")
	p1 := g.NewPort("a", Out)
	p2 := g.NewPort("b", Out)
	if !endPointEqual(p1, p1) || endPointEqual(p1, p2) {
		t.Error("port identity comparison")
	}
	if !endPointEqual(NewPin(1, 1, arch.S0X), NewPin(1, 1, arch.S0X)) {
		t.Error("pin value comparison")
	}
	if endPointEqual(NewPin(1, 1, arch.S0X), p1) || endPointEqual(p1, NewPin(1, 1, arch.S0X)) {
		t.Error("cross-type comparison")
	}
}
