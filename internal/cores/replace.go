package cores

import (
	"fmt"

	"repro/internal/core"
)

// Core is the common surface of every library core: placement, port
// groups, implementation and removal. It is what the §3.3 Replace flow
// operates on.
type Core interface {
	Name() string
	Place(row, col int) error
	Placed() bool
	Bounds() (row, col, width, height int)
	Implemented() bool
	Implement(r *core.Router) error
	Remove(r *core.Router) error
	Ports(group string) []*core.Port
	Group(name string) *core.Group
}

// Compile-time checks that every library core satisfies Core.
var (
	_ Core = (*ConstAdder)(nil)
	_ Core = (*Counter)(nil)
	_ Core = (*ConstMul)(nil)
	_ Core = (*Adder2)(nil)
	_ Core = (*MAC)(nil)
	_ Core = (*Register)(nil)
	_ Core = (*LFSR)(nil)
	_ Core = (*Comparator4)(nil)
	_ Core = (*Mux2)(nil)
	_ Core = (*ShiftRegister)(nil)
	_ Core = (*RAM16x8)(nil)
	_ Core = (*RouterNode)(nil)
	_ Core = (*Obstacle)(nil)
)

// Replace performs the full §3.3 run-time replacement flow for a core:
// every net touching one of the core's ports is unrouted (and remembered
// by the router), the core is removed, optionally mutated by `retune`,
// re-placed at (row, col), re-implemented, and finally every port's
// remembered connections are restored — "the core can be removed,
// unrouted, and replaced ... without having to specify connections again.
// Core relocation is handled in a similar way."
//
// The rip-up is region-scoped and incremental: beyond the core's own port
// nets, only third-party nets that touch the core's *destination*
// rectangle are unrouted (read off the fabric of the rectangle, at a cost
// that does not depend on what else is resident), and they are restored —
// replay-first — once the new implementation is in place. Everything else
// on the device is untouched. If that rip-up fails part-way, the nets it
// had already taken are put back before the error returns.
//
// Ports that were never externally routed are skipped. The port *objects*
// survive the swap, which is what lets the router's memory re-resolve them
// against the new implementation.
func Replace(r *core.Router, c Core, row, col int, groups []string, retune func() error) error {
	if !c.Implemented() {
		return fmt.Errorf("cores: %s is not implemented", c.Name())
	}
	_, _, width, height := c.Bounds()
	// 1. Unroute external nets on the named port groups. Out-ports are
	// net sources (unroute forward); in-ports are sinks (reverse
	// unroute their branch).
	for _, g := range groups {
		for _, p := range c.Ports(g) {
			pins := p.Pins()
			switch p.Dir() {
			case core.Out:
				if len(pins) == 1 {
					if t, ok := r.Dev.CanonOK(pins[0].Row, pins[0].Col, pins[0].W); !ok || r.Dev.FanoutCount(t) == 0 {
						continue // never routed externally
					}
				}
				if err := r.Unroute(p); err != nil {
					return fmt.Errorf("cores: replacing %s: %w", c.Name(), err)
				}
			case core.In:
				for _, pin := range pins {
					if !r.Dev.IsOn(pin.Row, pin.Col, pin.W) {
						continue
					}
					if err := r.ReverseUnroute(pin); err != nil {
						return fmt.Errorf("cores: replacing %s: %w", c.Name(), err)
					}
				}
			}
		}
	}
	// 2. Remove and retune.
	if err := c.Remove(r); err != nil {
		return err
	}
	if retune != nil {
		if err := retune(); err != nil {
			return err
		}
	}
	// 3. Clear the destination rectangle: every remaining live net that
	// crosses it is third-party (the core's own nets are gone), so rip
	// exactly those and no more. Their records come back for step 5.
	crossing, err := r.RipUpRegion(row, col, height, width)
	if err != nil {
		return fmt.Errorf("cores: replacing %s: %w", c.Name(), putBack(r, crossing, err))
	}
	// 4. Re-place and re-implement.
	if err := c.Place(row, col); err != nil {
		return err
	}
	if err := c.Implement(r); err != nil {
		return err
	}
	// 5. Reconnect remembered port nets against the new pins, then restore
	// the ripped crossing nets (replayed in place when their old wires are
	// still free, re-searched around the new core when not).
	for _, g := range groups {
		for _, p := range c.Ports(g) {
			if err := r.Reconnect(p); err != nil {
				return fmt.Errorf("cores: reconnecting %s.%s: %w", c.Name(), p.Name(), err)
			}
		}
	}
	for _, cc := range crossing {
		if err := r.RestoreConnection(cc); err != nil {
			return fmt.Errorf("cores: restoring net displaced by %s: %w", c.Name(), err)
		}
	}
	return nil
}

// putBack restores the nets a RipUpRegion had already retired when it
// failed part-way, and returns its error (noting any restore that failed
// too). A pin-to-pin record lives in no port's memory: the list that came
// back with the error is the only handle on those nets.
func putBack(r *core.Router, ripped []*core.Connection, err error) error {
	for _, rec := range ripped {
		if rerr := r.RestoreConnection(rec); rerr != nil {
			err = fmt.Errorf("%w; restoring a net it had ripped: %v", err, rerr)
		}
	}
	return err
}
