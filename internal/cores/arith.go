package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
)

// ConstAdder computes y = x + K for a run-time constant K: the paper's
// §4 example builds a counter from exactly this core. One ripple bit per
// slice, two bits per CLB, stacked northward. Groups:
//
//	"x"    In  — operand bits (LSB first)
//	"sum"  Out — result bits (registered when Registered)
//	"cin"  In  — optional carry in (reads 0 when unconnected)
//	"cout" Out — carry out of the top bit
type ConstAdder struct {
	Base
	Bits       int
	K          uint64
	Registered bool
	Clock      int // global clock index used when Registered
}

// NewConstAdder creates an unplaced constant adder.
func NewConstAdder(name string, bits int, k uint64, registered bool) (*ConstAdder, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("cores: adder width %d out of range", bits)
	}
	a := &ConstAdder{Bits: bits, K: k, Registered: registered}
	a.init(name, 1, (bits+1)/2)
	return a, nil
}

// bitSite returns the CLB and slice of bit i.
func (a *ConstAdder) bitSite(i int) (row, col, slice int) {
	return a.row + i/2, a.col, i % 2
}

// sumPin returns the output pin carrying sum bit i.
func (a *ConstAdder) sumPin(i int) core.Pin {
	r, c, s := a.bitSite(i)
	p := s * 4 // X pin of the slice
	if a.Registered {
		p += 2 // XQ
	}
	return core.NewPin(r, c, arch.OutPin(p))
}

// Implement configures the adder at its placement and routes the carry
// chain, binding all ports (§3.2: "the router needs to be called for each
// port defined").
func (a *ConstAdder) Implement(r *core.Router) (err error) {
	if err := a.begin(r); err != nil {
		return err
	}
	defer a.settle(r, a, &err)
	for i := 0; i < a.Bits; i++ {
		row, col, s := a.bitSite(i)
		k := a.K>>uint(i)&1 != 0
		if err := a.setLUT(r.Dev, row, col, s*2+0, sumTruth(k)); err != nil {
			return err
		}
		if err := a.setLUT(r.Dev, row, col, s*2+1, carryTruth(k)); err != nil {
			return err
		}
		// Ports: x_i enters both the sum and the carry LUT.
		xPort := a.port("x", i, core.In)
		if err := xPort.Bind(
			core.NewPin(row, col, arch.LUTInput(s, 0, 1)),
			core.NewPin(row, col, arch.LUTInput(s, 1, 1)),
		); err != nil {
			return err
		}
		if err := a.port("sum", i, core.Out).Bind(a.sumPin(i)); err != nil {
			return err
		}
	}
	// Carry chain: slice 0 -> slice 1 by local feedback (S0Y reaches
	// S1F2/S1G2 directly, §2 "feedback to inputs in the same logic
	// block"); CLB -> CLB northward through the general routing matrix.
	for i := 0; i+1 < a.Bits; i++ {
		row, col, s := a.bitSite(i)
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
	if err := a.port("cin", 0, core.In).Bind(
		core.NewPin(a.row, a.col, arch.S0F2),
		core.NewPin(a.row, a.col, arch.S0G2),
	); err != nil {
		return err
	}
	topRow, topCol, topSlice := a.bitSite(a.Bits - 1)
	coutPin := arch.S0Y
	if topSlice == 1 {
		coutPin = arch.S1Y
	}
	if err := a.port("cout", 0, core.Out).Bind(core.NewPin(topRow, topCol, coutPin)); err != nil {
		return err
	}
	if a.Registered {
		var clkPins []core.EndPoint
		for i := 0; i < a.Bits; i++ {
			row, col, s := a.bitSite(i)
			clk := arch.S0CLK
			if s == 1 {
				clk = arch.S1CLK
			}
			clkPins = append(clkPins, core.NewPin(row, col, clk))
		}
		if err := r.RouteClock(a.Clock, clkPins...); err != nil {
			return err
		}
	}
	return nil
}

// SetConstant changes K at run time by rewriting LUT truth tables only —
// no routing changes, the essence of a run-time parameterizable core.
func (a *ConstAdder) SetConstant(r *core.Router, k uint64) error {
	if !a.implemented {
		a.K = k
		return nil
	}
	a.K = k
	for i := 0; i < a.Bits; i++ {
		row, col, s := a.bitSite(i)
		kb := k>>uint(i)&1 != 0
		if err := r.Dev.SetLUT(row, col, s*2+0, sumTruth(kb)); err != nil {
			return err
		}
		if err := r.Dev.SetLUT(row, col, s*2+1, carryTruth(kb)); err != nil {
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
