// Package core implements JRoute: the run-time routing API of the paper.
//
// The paper's six route(...) overloads map onto Go methods of Router:
//
//	route(int row, int col, int from, int to)      -> Route
//	route(Path path)                               -> RoutePath
//	route(Pin start, int end_wire, Template t)     -> RouteTemplate
//	route(EndPoint source, EndPoint sink)          -> RouteNet
//	route(EndPoint source, EndPoint[] sinks)       -> RouteFanout
//	route(EndPoint[] sources, EndPoint[] sinks)    -> RouteBus
//
// and likewise unroute -> Unroute, reverseUnroute -> ReverseUnroute,
// trace -> Trace, reverseTrace -> ReverseTrace, ison -> IsOn.
//
// An EndPoint is "either a Pin, defined by a row, column, and wire, or a
// Port" (§3.1). Ports are virtual pins exported by cores (§3.2); the router
// translates a port into its pin list when it encounters one, and saves the
// connections made to a port so that replacing or relocating the core can
// restore them (§3.3).
package core

import (
	"fmt"

	"repro/internal/arch"
)

// Pin is a wire at a specific row and column.
type Pin struct {
	Row, Col int
	W        arch.Wire
}

// NewPin constructs a Pin, mirroring the paper's new Pin(5, 7, S1_YQ).
func NewPin(row, col int, w arch.Wire) Pin { return Pin{Row: row, Col: col, W: w} }

// Pins implements EndPoint.
func (p Pin) Pins() []Pin { return []Pin{p} }

// String renders like "(5,7).S1YQ" with architecture-independent numbering;
// use Arch.WireName for the paper-style wire name.
func (p Pin) String() string { return fmt.Sprintf("(%d,%d).w%d", p.Row, p.Col, p.W) }

// EndPoint is the common type of Pin and *Port: anything that resolves to
// physical pins. "To the user there is no distinction between a physical
// pin ... and a logical port as they are both derived from the EndPoint
// class." (§3.2)
type EndPoint interface {
	// Pins resolves the endpoint to physical pins. A Pin resolves to
	// itself; a Port resolves through any port-to-port bindings to the
	// pins currently bound.
	Pins() []Pin
}

// PortDir distinguishes ports that source a signal from ports that sink it.
type PortDir uint8

// Port directions.
const (
	In PortDir = iota
	Out
)

// String returns "in" or "out".
func (d PortDir) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// Port is a virtual pin exported by a core. A port is bound either to
// physical pins (the core's internal logic pins) or to another port (a port
// of an internal core being re-exported, §3.2: "It can also specify
// connections from ports of internal cores to its own ports").
//
// Every port must belong to a group ("each port needs to be in a group",
// §3.2); groups of related ports (the bits of a bus) are what RouteBus
// connects.
type Port struct {
	name    string
	dir     PortDir
	group   *Group
	pins    []Pin
	forward *Port // non-nil if bound to an inner core's port
}

// Name returns the port's name within its group.
func (p *Port) Name() string { return p.name }

// Dir returns the port's direction.
func (p *Port) Dir() PortDir { return p.dir }

// Group returns the group the port belongs to.
func (p *Port) Group() *Group { return p.group }

// Bind points the port at physical pins. An Out port must bind exactly one
// pin (a net has one source); an In port may bind several (the same logical
// input can enter several LUTs).
func (p *Port) Bind(pins ...Pin) error {
	if p.dir == Out && len(pins) != 1 {
		return fmt.Errorf("core: out port %q must bind exactly one pin, got %d", p.name, len(pins))
	}
	if p.dir == In && len(pins) == 0 {
		return fmt.Errorf("core: in port %q must bind at least one pin", p.name)
	}
	p.pins = append([]Pin(nil), pins...)
	p.forward = nil
	return nil
}

// BindPort re-exports an inner core's port as this port. Directions must
// match.
func (p *Port) BindPort(inner *Port) error {
	if inner == nil {
		return fmt.Errorf("core: port %q bound to nil port", p.name)
	}
	if inner.dir != p.dir {
		return fmt.Errorf("core: port %q (%s) cannot re-export %q (%s)",
			p.name, p.dir, inner.name, inner.dir)
	}
	// Reject cycles: walk the forward chain.
	for q := inner; q != nil; q = q.forward {
		if q == p {
			return fmt.Errorf("core: port binding cycle through %q", p.name)
		}
	}
	p.forward = inner
	p.pins = nil
	return nil
}

// Bound reports whether the port resolves to at least one pin.
func (p *Port) Bound() bool { return len(p.resolved()) > 0 }

// Pins implements EndPoint, resolving forwards ("the router knows about
// ports and when one is encountered, it translates it to the corresponding
// list of pins", §3.2).
func (p *Port) Pins() []Pin { return append([]Pin(nil), p.resolved()...) }

// resolved is the pin list at the end of p's forward chain, not a copy.
func (p *Port) resolved() []Pin {
	for p.forward != nil {
		p = p.forward
	}
	return p.pins
}

// appendPins appends the pins e resolves to onto dst, reading a Pin or a
// *Port in place; any other endpoint resolves through Pins.
func appendPins(dst []Pin, e EndPoint) []Pin {
	switch e := e.(type) {
	case Pin:
		return append(dst, e)
	case *Port:
		return append(dst, e.resolved()...)
	}
	return append(dst, e.Pins()...)
}

// String renders "group.port".
func (p *Port) String() string {
	if p.group != nil {
		return p.group.name + "." + p.name
	}
	return p.name
}

// Group is a named collection of related ports, typically the bits of a
// bus. "For example, if there is an adder with an n bit output, each bit is
// defined as a port and put into the same group. The group can be of any
// size greater than zero." (§3.2)
type Group struct {
	name  string
	ports []*Port
}

// NewGroup creates an empty group.
func NewGroup(name string) *Group { return &Group{name: name} }

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// NewPort creates a port in this group.
func (g *Group) NewPort(name string, dir PortDir) *Port {
	p := &Port{name: name, dir: dir, group: g}
	g.ports = append(g.ports, p)
	return p
}

// Ports returns the group's ports in creation order — the paper's required
// getPorts() accessor ("a getports() method must be defined for each
// group, which returns the array of Ports associated with that group").
func (g *Group) Ports() []*Port { return append([]*Port(nil), g.ports...) }

// Size returns the number of ports in the group.
func (g *Group) Size() int { return len(g.ports) }

// EndPoints returns the group's ports widened to EndPoints, convenient for
// RouteBus.
func (g *Group) EndPoints() []EndPoint {
	out := make([]EndPoint, len(g.ports))
	for i, p := range g.ports {
		out[i] = p
	}
	return out
}
