package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
)

// ripple is the column ConstAdder and Adder2 share: one full-adder bit per
// slice, two bits per CLB, stacked northward. Bit i's F LUT computes its
// sum and its G LUT its carry, both reading the carry in on input 2; the
// operands enter inputs the adder names. Groups:
//
//	"sum"  Out — result bits (registered when Registered)
//	"cin"  In  — optional carry in (reads 0 when unconnected)
//	"cout" Out — carry out of the top bit
type ripple struct {
	Base
	Bits       int
	Registered bool
	Clock      int // global clock index used when Registered
}

func (c *ripple) init(name string, bits int, registered bool) error {
	if bits < 1 || bits > 64 {
		return fmt.Errorf("cores: adder width %d out of range", bits)
	}
	c.Bits, c.Registered = bits, registered
	c.Base.init(name, 1, (bits+1)/2)
	return nil
}

// sumPin returns the output pin carrying sum bit i.
func (c *ripple) sumPin(i int) core.Pin {
	row, col, s := c.rippleSite(i)
	if c.Registered {
		return core.NewPin(row, col, ffOutPin(s*2))
	}
	return core.NewPin(row, col, lutOutPin(s*2))
}

// operand is an input group of a ripple column: bit i's port binds input
// in of both of the bit's LUTs.
type operand struct {
	group string
	in    int
}

// implement configures bit i's LUTs with truth(i), binds the operand,
// sum, cin and cout ports, routes the carry chain, and clocks the sums when
// Registered (§3.2: "the router needs to be called for each port defined").
func (c *ripple) implement(r *core.Router, truth func(i int) (sum, carry uint16), ops ...operand) error {
	for i := 0; i < c.Bits; i++ {
		row, col, s := c.rippleSite(i)
		sum, carry := truth(i)
		if err := c.setLUT(r.Dev, row, col, s*2, sum); err != nil {
			return err
		}
		if err := c.setLUT(r.Dev, row, col, s*2+1, carry); err != nil {
			return err
		}
		for _, op := range ops {
			if err := c.port(op.group, i, core.In).Bind(lutIn(row, col, s*2, op.in), lutIn(row, col, s*2+1, op.in)); err != nil {
				return err
			}
		}
		if err := c.port("sum", i, core.Out).Bind(c.sumPin(i)); err != nil {
			return err
		}
	}
	// Carry chain: slice 0 -> slice 1 by local feedback (S0Y reaches
	// S1F2/S1G2 directly, §2 "feedback to inputs in the same logic
	// block"); CLB -> CLB northward through the general routing matrix.
	for i := 0; i+1 < c.Bits; i++ {
		row, col, s := c.rippleSite(i)
		if s == 0 {
			if err := r.Route(row, col, arch.S0Y, arch.S1F2); err != nil {
				return err
			}
			if err := r.Route(row, col, arch.S0Y, arch.S1G2); err != nil {
				return err
			}
		} else {
			src := core.NewPin(row, col, arch.S1Y)
			sinks := []core.EndPoint{
				core.NewPin(row+1, col, arch.S0F2),
				core.NewPin(row+1, col, arch.S0G2),
			}
			if err := r.RouteFanout(src, sinks); err != nil {
				return err
			}
		}
	}
	// cin feeds bit 0's carry inputs; cout is the top bit's carry LUT.
	if err := c.port("cin", 0, core.In).Bind(lutIn(c.row, c.col, 0, 2), lutIn(c.row, c.col, 1, 2)); err != nil {
		return err
	}
	row, col, s := c.rippleSite(c.Bits - 1)
	if err := c.port("cout", 0, core.Out).Bind(core.NewPin(row, col, lutOutPin(s*2+1))); err != nil {
		return err
	}
	if c.Registered {
		return c.routeClock(r, c.Clock, c.Bits, 1)
	}
	return nil
}

// ConstAdder computes y = x + K for a run-time constant K: the paper's
// §4 example builds a counter from exactly this core. It is a ripple
// column (width Bits, sums registered on Clock when Registered) whose x
// bit enters input 1 of both of its LUTs. Groups: "x" In (operand bits,
// LSB first) beside the ripple column's "sum", "cin" and "cout".
type ConstAdder struct {
	ripple
	K uint64
}

// NewConstAdder creates an unplaced constant adder.
func NewConstAdder(name string, bits int, k uint64, registered bool) (*ConstAdder, error) {
	a := &ConstAdder{K: k}
	if err := a.init(name, bits, registered); err != nil {
		return nil, err
	}
	return a, nil
}

// bitTruth returns the sum and carry tables of bit i for the current K.
func (a *ConstAdder) bitTruth(i int) (sum, carry uint16) {
	k := a.K>>uint(i)&1 != 0
	return sumTruth(k), carryTruth(k)
}

// Implement configures the adder at its placement, routes the carry chain
// and binds all ports.
func (a *ConstAdder) Implement(r *core.Router) (err error) {
	if err := a.begin(r); err != nil {
		return err
	}
	defer a.settle(r, a, &err)
	return a.implement(r, a.bitTruth, operand{"x", 1})
}

// SetConstant changes K at run time by rewriting LUT truth tables only —
// no routing changes, the essence of a run-time parameterizable core.
func (a *ConstAdder) SetConstant(r *core.Router, k uint64) error {
	a.K = k
	if !a.implemented {
		return nil
	}
	for i := 0; i < a.Bits; i++ {
		row, col, s := a.rippleSite(i)
		sum, carry := a.bitTruth(i)
		if err := r.Dev.SetLUT(row, col, s*2, sum); err != nil {
			return err
		}
		if err := r.Dev.SetLUT(row, col, s*2+1, carry); err != nil {
			return err
		}
	}
	return nil
}

// Counter is the paper's §4 composition: "a counter can be made from a
// constant adder with the output fed back to one input ports and the other
// input set to a value of one." The count output group "q" re-exports the
// adder's registered sum ports through port forwarding.
type Counter struct {
	Base
	Bits  int
	Step  uint64
	Clock int

	adder *ConstAdder
}

// NewCounter creates an unplaced counter that advances by step each cycle.
func NewCounter(name string, bits int, step uint64) (*Counter, error) {
	adder, err := NewConstAdder(name+".add", bits, step, true)
	if err != nil {
		return nil, err
	}
	c := &Counter{Bits: bits, Step: step, adder: adder}
	c.init(name, 1, (bits+1)/2)
	return c, nil
}

// Implement places and implements the internal adder, feeds the registered
// sums back to the x inputs with a bus route, and re-exports the sums as
// the "q" group.
func (c *Counter) Implement(r *core.Router) (err error) {
	if err := c.begin(r); err != nil {
		return err
	}
	defer c.settle(r, c, &err)
	c.adder.Clock = c.Clock
	if err := c.adder.Place(c.row, c.col); err != nil {
		return err
	}
	if err := c.adder.Implement(r); err != nil {
		return err
	}
	sums := c.adder.Group("sum").Ports()
	xs := c.adder.Group("x").Ports()
	for i := 0; i < c.Bits; i++ {
		if err := r.RouteNet(sums[i], xs[i]); err != nil {
			return err
		}
		if err := c.port("q", i, core.Out).BindPort(sums[i]); err != nil {
			return err
		}
	}
	return nil
}

// SetStep changes the increment at run time (truth tables only).
func (c *Counter) SetStep(r *core.Router, step uint64) error {
	c.Step = step
	return c.adder.SetConstant(r, step)
}

// Remove unroutes the feedback bus and removes the internal adder (if a
// failed Implement got that far).
func (c *Counter) Remove(r *core.Router) error {
	if err := c.Base.Remove(r); err != nil || !c.adder.Implemented() {
		return err
	}
	return c.adder.Remove(r)
}
