package cores

import (
	"fmt"

	"repro/internal/core"
)

// ConstMul multiplies a 4-bit input by a run-time constant K, entirely in
// LUTs: output bit j is a 4-input truth table of x. This is the paper's
// §3.3 motivating core: "consider a constant multiplier. The system
// connects it to the circuit and later requires a new constant. The core
// can be removed, unrouted, and replaced ... without having to specify
// connections again" — and because only truth tables encode K, swapping
// the constant is a pure LUT rewrite with identical footprint and ports.
//
// Groups:
//
//	"x" In  — the 4 input bits (each fans into every output LUT)
//	"p" Out — the 4+KBits product bits
type ConstMul struct {
	Base
	K     uint64
	KBits int // fixed constant width; output width is 4+KBits
}

// NewConstMul creates an unplaced constant multiplier for constants of up
// to kBits bits.
func NewConstMul(name string, k uint64, kBits int) (*ConstMul, error) {
	if kBits < 1 || kBits > 12 {
		return nil, fmt.Errorf("cores: constant width %d out of range (1..12)", kBits)
	}
	if k >= 1<<uint(kBits) {
		return nil, fmt.Errorf("cores: constant %d does not fit in %d bits", k, kBits)
	}
	m := &ConstMul{K: k, KBits: kBits}
	m.init(name, 1, (m.OutBits()+3)/4)
	return m, nil
}

// OutBits returns the product width.
func (m *ConstMul) OutBits() int { return 4 + m.KBits }

// Implement configures the product LUTs and binds the ports.
func (m *ConstMul) Implement(r *core.Router) (err error) {
	if err := m.begin(r); err != nil {
		return err
	}
	defer m.settle(r, m, &err)
	out := m.OutBits()
	for j := 0; j < out; j++ {
		row, col, n := m.lutSite(j)
		if err := m.setLUT(r.Dev, row, col, n, mulTruth(m.K, j)); err != nil {
			return err
		}
		if err := m.port("p", j, core.Out).Bind(core.NewPin(row, col, lutOutPin(n))); err != nil {
			return err
		}
	}
	// Each x bit enters input i+1 of every product LUT.
	var xPins [16]core.Pin
	for i := 0; i < 4; i++ {
		for j := 0; j < out; j++ {
			row, col, n := m.lutSite(j)
			xPins[j] = lutIn(row, col, n, i+1)
		}
		if err := m.port("x", i, core.In).Bind(xPins[:out]...); err != nil {
			return err
		}
	}
	return nil
}

// SetConstant swaps K at run time: truth tables only, no routing change.
func (m *ConstMul) SetConstant(r *core.Router, k uint64) error {
	if k >= 1<<uint(m.KBits) {
		return fmt.Errorf("cores: constant %d does not fit in %d bits", k, m.KBits)
	}
	m.K = k
	if !m.implemented {
		return nil
	}
	for j := 0; j < m.OutBits(); j++ {
		row, col, n := m.lutSite(j)
		if err := r.Dev.SetLUT(row, col, n, mulTruth(k, j)); err != nil {
			return err
		}
	}
	return nil
}
