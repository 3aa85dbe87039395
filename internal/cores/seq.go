package cores

import (
	"fmt"

	"repro/internal/core"
)

// Register is an n-bit clocked register: four bits per CLB (one per LUT,
// output on the corresponding XQ/YQ flip-flop). Groups:
//
//	"d" In  — data inputs
//	"q" Out — registered outputs
type Register struct {
	Base
	Bits  int
	Clock int
}

// NewRegister creates an unplaced register.
func NewRegister(name string, bits int) (*Register, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("cores: register width %d out of range", bits)
	}
	reg := &Register{Bits: bits}
	reg.init(name, 1, (bits+3)/4)
	return reg, nil
}

// Implement configures buffer LUTs in front of the flip-flops, binds the
// ports, and routes the clock.
func (reg *Register) Implement(r *core.Router) (err error) {
	if err := reg.begin(r); err != nil {
		return err
	}
	defer reg.settle(r, reg, &err)
	for i := 0; i < reg.Bits; i++ {
		row, col, n := reg.lutSite(i)
		if err := reg.setLUT(r.Dev, row, col, n, TruthBuf); err != nil {
			return err
		}
		if err := reg.port("d", i, core.In).Bind(lutIn(row, col, n, 1)); err != nil {
			return err
		}
		if err := reg.port("q", i, core.Out).Bind(reg.qPin(i)); err != nil {
			return err
		}
	}
	return reg.routeClock(r, reg.Clock, reg.Bits, 2)
}

// LFSR is a Fibonacci linear-feedback shift register: bit 0's next state is
// the XOR of two tap bits, every other bit shifts from its predecessor.
// Groups:
//
//	"q" Out — the register state (bit 0 is the feedback end)
type LFSR struct {
	Base
	Bits       int
	TapA, TapB int
	Clock      int
	Seed       uint64
}

// NewLFSR creates an unplaced LFSR with taps tapA and tapB (bit indices)
// and a non-zero seed.
func NewLFSR(name string, bits, tapA, tapB int, seed uint64) (*LFSR, error) {
	if bits < 2 || bits > 64 {
		return nil, fmt.Errorf("cores: LFSR width %d out of range", bits)
	}
	if tapA < 0 || tapA >= bits || tapB < 0 || tapB >= bits || tapA == tapB {
		return nil, fmt.Errorf("cores: bad LFSR taps %d,%d for width %d", tapA, tapB, bits)
	}
	if seed == 0 || seed >= 1<<uint(bits) {
		return nil, fmt.Errorf("cores: LFSR seed %#x invalid for width %d", seed, bits)
	}
	l := &LFSR{Bits: bits, TapA: tapA, TapB: tapB, Seed: seed}
	l.init(name, 1, (bits+3)/4)
	return l, nil
}

// Implement configures the shift and feedback logic, seeds the state via
// flip-flop init values, binds "q", and routes the clock.
func (l *LFSR) Implement(r *core.Router) (err error) {
	if err := l.begin(r); err != nil {
		return err
	}
	defer l.settle(r, l, &err)
	for i := 0; i < l.Bits; i++ {
		row, col, n := l.lutSite(i)
		truth := TruthBuf
		if i == 0 {
			truth = TruthXor2
		}
		if err := l.setLUT(r.Dev, row, col, n, truth); err != nil {
			return err
		}
		if err := r.Dev.SetFFInit(row, col, n, l.Seed>>uint(i)&1 != 0); err != nil {
			return err
		}
		if err := l.port("q", i, core.Out).Bind(l.qPin(i)); err != nil {
			return err
		}
	}
	if err := l.shiftChain(r, l.Bits); err != nil {
		return err
	}
	// Feedback: q[tapA] XOR q[tapB] -> bit 0.
	if err := r.RouteNet(l.qPin(l.TapA), lutIn(l.row, l.col, 0, 1)); err != nil {
		return err
	}
	if err := r.RouteNet(l.qPin(l.TapB), lutIn(l.row, l.col, 0, 2)); err != nil {
		return err
	}
	return l.routeClock(r, l.Clock, l.Bits, 2)
}
