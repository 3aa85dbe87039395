// Package cores is the run-time parameterizable (RTP) core library built on
// JRoute, reproducing §3.2's core model: each core occupies a rectangle of
// CLBs, configures LUTs, routes its internal nets through the router, and
// exports Ports in named Groups so users connect cores port-to-port without
// knowing the device ("Using cores and the JRoute API, a user can create
// designs without knowledge of the routing architecture").
//
// The §3.2 routing guidelines are honoured: every port is in a group, the
// router is called for each port's internal connections during Implement,
// and Ports(group) is the required getports() accessor.
//
// Cores support the §3.3 RTR lifecycle: Implement (configure + route
// internals), Remove (unroute internals, clear logic), run-time parameter
// changes (e.g. ConstMul.SetConstant rewrites truth tables only), and
// relocation by Place + Implement at new coordinates with the router's port
// memory restoring external connections.
package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

// Base carries the bookkeeping shared by all cores.
type Base struct {
	name          string
	row, col      int // placement: south-west CLB
	width, height int // footprint in CLBs (cols, rows)
	placed        bool
	implemented   bool

	groups map[string]*core.Group

	lutCells []lutCell
	since    uint64 // the router's Seq when Implement began (see Remove)
}

type lutCell struct {
	row, col, n int
}

// Name returns the core's instance name.
func (b *Base) Name() string { return b.name }

// Bounds returns the placement and footprint; valid once placed.
func (b *Base) Bounds() (row, col, width, height int) {
	return b.row, b.col, b.width, b.height
}

// Placed reports whether the core has coordinates.
func (b *Base) Placed() bool { return b.placed }

// Implemented reports whether the core's logic is on the device.
func (b *Base) Implemented() bool { return b.implemented }

func (b *Base) init(name string, width, height int) {
	b.name = name
	b.width = width
	b.height = height
	b.groups = make(map[string]*core.Group)
}

// Place assigns the core's south-west corner. The core must be implemented
// afterwards; re-placing an implemented core requires Remove first.
func (b *Base) Place(row, col int) error {
	if b.implemented {
		return fmt.Errorf("cores: %s is implemented; Remove before re-placing", b.name)
	}
	b.row, b.col = row, col
	b.placed = true
	return nil
}

// Group returns (creating on first use) the named port group — the §3.2
// getports() accessor is Group(name).Ports().
func (b *Base) Group(name string) *core.Group {
	g, ok := b.groups[name]
	if !ok {
		g = core.NewGroup(b.name + "." + name)
		b.groups[name] = g
	}
	return g
}

// Ports returns the ports of a group, or nil if the group does not exist.
func (b *Base) Ports(group string) []*core.Port {
	g, ok := b.groups[group]
	if !ok {
		return nil
	}
	return g.Ports()
}

// port returns the i'th port of a group, creating ports up to i with the
// given direction as needed (used by Implement bodies).
func (b *Base) port(group string, i int, dir core.PortDir) *core.Port {
	g := b.Group(group)
	for g.Size() <= i {
		g.NewPort(fmt.Sprintf("%s%d", group, g.Size()), dir)
	}
	return g.Ports()[i]
}

// begin starts an Implement: the core must be placed on a free, in-bounds
// rectangle. An Implement that gets past begin ends with settle.
func (b *Base) begin(r *core.Router) error {
	if !b.placed {
		return fmt.Errorf("cores: %s is not placed", b.name)
	}
	if b.row < 0 || b.col < 0 || b.row+b.height > r.Dev.Rows || b.col+b.width > r.Dev.Cols {
		return fmt.Errorf("cores: %s at (%d,%d) size %dx%d does not fit the %dx%d array",
			b.name, b.row, b.col, b.width, b.height, r.Dev.Rows, r.Dev.Cols)
	}
	for row := b.row; row < b.row+b.height; row++ {
		for col := b.col; col < b.col+b.width; col++ {
			if r.Dev.CLBActive(row, col) {
				return fmt.Errorf("cores: %s overlaps configured CLB (%d,%d)", b.name, row, col)
			}
		}
	}
	b.since = r.Seq()
	return nil
}

// settle ends an Implement that got past begin: c is implemented, or, when
// *err is set, c.Remove takes back whatever the failed call had set.
func (b *Base) settle(r *core.Router, c Core, err *error) {
	b.implemented = true
	if *err != nil {
		if rerr := c.Remove(r); rerr != nil {
			*err = fmt.Errorf("%w (and undoing it: %v)", *err, rerr)
		}
	}
}

// setLUT configures a LUT and records it for Remove.
func (b *Base) setLUT(dev *device.Device, row, col, n int, truth uint16) error {
	if err := dev.SetLUT(row, col, n, truth); err != nil {
		return err
	}
	b.lutCells = append(b.lutCells, lutCell{row, col, n})
	return nil
}

// A core stacks its bits northward from its south-west CLB in one of two
// columns. A ripple column holds one bit per slice, two per CLB, so a carry
// reaches the next bit by local feedback or one CLB north. A LUT column
// holds one bit per LUT, four per CLB; LUT n (0..3) is S0F, S0G, S1F, S1G.

// rippleSite returns the CLB and slice of bit i of a ripple column.
func (b *Base) rippleSite(i int) (row, col, slice int) {
	return b.row + i/2, b.col, i % 2
}

// lutSite returns the CLB and LUT of bit i of a LUT column.
func (b *Base) lutSite(i int) (row, col, n int) {
	return b.row + i/4, b.col, i % 4
}

// qPin returns the registered output of bit i of a LUT column.
func (b *Base) qPin(i int) core.Pin {
	row, col, n := b.lutSite(i)
	return core.NewPin(row, col, ffOutPin(n))
}

// shiftChain routes q[i-1] to input 1 of bit i's LUT for every bit of a
// LUT column but the first.
func (b *Base) shiftChain(r *core.Router, bits int) error {
	for i := 1; i < bits; i++ {
		row, col, n := b.lutSite(i)
		if err := r.RouteNet(b.qPin(i-1), lutIn(row, col, n, 1)); err != nil {
			return err
		}
	}
	return nil
}

// routeClock routes global clock `clock` to the flip-flops of a column's
// bits, one clock pin per bit in bit order, where a slice holds perSlice
// bits: 1 in a ripple column, 2 in a LUT column.
func (b *Base) routeClock(r *core.Router, clock, bits, perSlice int) error {
	var pins []core.EndPoint
	for i := 0; i < bits; i++ {
		s := i / perSlice
		pins = append(pins, clockPin(b.row+s/2, b.col, s%2))
	}
	return r.RouteClock(clock, pins...)
}

// lutIn returns input k (1..4) of LUT n of the CLB at (row, col).
func lutIn(row, col, n, k int) core.Pin {
	return core.NewPin(row, col, arch.LUTInput(n/2, n%2, k))
}

// lutOutPin returns the combinational output of LUT n (X for F, Y for G).
func lutOutPin(n int) arch.Wire { return arch.OutPin((n/2)*4 + n%2) }

// ffOutPin returns the registered output of LUT n (XQ for F, YQ for G).
func ffOutPin(n int) arch.Wire { return arch.OutPin((n/2)*4 + 2 + n%2) }

// clockPin returns the clock pin of slice s of the CLB at (row, col).
func clockPin(row, col, s int) core.Pin {
	if s == 1 {
		return core.NewPin(row, col, arch.S1CLK)
	}
	return core.NewPin(row, col, arch.S0CLK)
}

// Remove takes the core off the device: what its Implement routed (the
// records made since, inside the footprint) is unrouted, and LUTs and FF
// inits are wiped. External connections to the core's ports must be
// unrouted by the caller first (they are the user's nets); the router
// remembers them for Reconnect (§3.3).
func (b *Base) Remove(r *core.Router) error {
	if !b.implemented {
		return fmt.Errorf("cores: %s is not implemented", b.name)
	}
	if err := r.UnrouteWithin(b.row, b.col, b.height, b.width, b.since); err != nil {
		return fmt.Errorf("cores: removing %s: %w", b.name, err)
	}
	for _, lc := range b.lutCells {
		if err := r.Dev.ClearLUT(lc.row, lc.col, lc.n); err != nil {
			return err
		}
		for n := 0; n < device.NumFFs; n++ {
			if err := r.Dev.SetFFInit(lc.row, lc.col, n, false); err != nil {
				return err
			}
		}
	}
	b.lutCells = b.lutCells[:0]
	b.implemented = false
	return nil
}
