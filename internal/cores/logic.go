package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
)

// Comparator4 is a 4-bit equality comparator in a single CLB: two 2-bit
// equality LUTs whose results are ANDed. Groups:
//
//	"a", "b" In — the operands, 4 bits each
//	"eq" Out    — high when a == b
type Comparator4 struct {
	Base
}

// NewComparator4 creates an unplaced comparator.
func NewComparator4(name string) *Comparator4 {
	c := &Comparator4{}
	c.init(name, 1, 1)
	return c
}

// Implement configures the comparator at its placement.
func (c *Comparator4) Implement(r *core.Router) (err error) {
	if err := c.begin(r); err != nil {
		return err
	}
	defer c.settle(r, c, &err)
	row, col := c.row, c.col
	// S0F compares bits 0,1; S1F compares bits 2,3; S0G ANDs them.
	if err := c.setLUT(r.Dev, row, col, 0, TruthEq2); err != nil { // S0F
		return err
	}
	if err := c.setLUT(r.Dev, row, col, 2, TruthEq2); err != nil { // S1F
		return err
	}
	if err := c.setLUT(r.Dev, row, col, 1, TruthAnd2); err != nil { // S0G
		return err
	}
	// eq01 (S0X) reaches S0G1 by local feedback; eq23 (S1X) crosses
	// slices through the routing matrix.
	if err := r.Route(row, col, arch.S0X, arch.S0G1); err != nil {
		return err
	}
	if err := r.RouteNet(core.NewPin(row, col, arch.S1X),
		core.NewPin(row, col, arch.S0G2)); err != nil {
		return err
	}
	// Operand pin assignment: TruthEq2 tests input1==input2 AND
	// input3==input4, so a/b bit pairs interleave.
	aPins := []core.Pin{
		core.NewPin(row, col, arch.S0F1), core.NewPin(row, col, arch.S0F3),
		core.NewPin(row, col, arch.S1F1), core.NewPin(row, col, arch.S1F3),
	}
	bPins := []core.Pin{
		core.NewPin(row, col, arch.S0F2), core.NewPin(row, col, arch.S0F4),
		core.NewPin(row, col, arch.S1F2), core.NewPin(row, col, arch.S1F4),
	}
	for i := 0; i < 4; i++ {
		if err := c.port("a", i, core.In).Bind(aPins[i]); err != nil {
			return err
		}
		if err := c.port("b", i, core.In).Bind(bPins[i]); err != nil {
			return err
		}
	}
	if err := c.port("eq", 0, core.Out).Bind(core.NewPin(row, col, arch.S0Y)); err != nil {
		return err
	}
	return nil
}

// Mux2 is an n-bit 2-to-1 multiplexer: z = sel ? b : a, one LUT per bit.
// Groups:
//
//	"a", "b" In — data inputs
//	"sel" In    — the select, fanned to every bit
//	"z" Out     — outputs
type Mux2 struct {
	Base
	Bits int
}

// NewMux2 creates an unplaced multiplexer.
func NewMux2(name string, bits int) (*Mux2, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("cores: mux width %d out of range", bits)
	}
	m := &Mux2{Bits: bits}
	m.init(name, 1, (bits+3)/4)
	return m, nil
}

// Implement configures the mux LUTs and binds ports.
func (m *Mux2) Implement(r *core.Router) (err error) {
	if err := m.begin(r); err != nil {
		return err
	}
	defer m.settle(r, m, &err)
	var selPins []core.Pin
	for i := 0; i < m.Bits; i++ {
		row, col, n := m.lutSite(i)
		if err := m.setLUT(r.Dev, row, col, n, TruthMux); err != nil {
			return err
		}
		if err := m.port("a", i, core.In).Bind(lutIn(row, col, n, 1)); err != nil {
			return err
		}
		if err := m.port("b", i, core.In).Bind(lutIn(row, col, n, 2)); err != nil {
			return err
		}
		if err := m.port("z", i, core.Out).Bind(core.NewPin(row, col, lutOutPin(n))); err != nil {
			return err
		}
		selPins = append(selPins, lutIn(row, col, n, 3))
	}
	if err := m.port("sel", 0, core.In).Bind(selPins...); err != nil {
		return err
	}
	return nil
}
