package cores

import (
	"fmt"

	"repro/internal/core"
)

// ShiftRegister is an n-bit serial-in, parallel-out shift register: each
// clock, bit 0 captures the serial input and every other bit captures its
// predecessor. Groups:
//
//	"sin" In  — the serial input (enters bit 0)
//	"q"   Out — the parallel state (bit 0 is the newest)
type ShiftRegister struct {
	Base
	Bits  int
	Clock int
}

// NewShiftRegister creates an unplaced shift register.
func NewShiftRegister(name string, bits int) (*ShiftRegister, error) {
	if bits < 2 || bits > 64 {
		return nil, fmt.Errorf("cores: shift register width %d out of range", bits)
	}
	s := &ShiftRegister{Bits: bits}
	s.init(name, 1, (bits+3)/4)
	return s, nil
}

// Implement configures buffer LUTs, routes the shift chain, binds ports,
// and routes the clock.
func (s *ShiftRegister) Implement(r *core.Router) (err error) {
	if err := s.begin(r); err != nil {
		return err
	}
	defer s.settle(r, s, &err)
	for i := 0; i < s.Bits; i++ {
		row, col, n := s.lutSite(i)
		if err := s.setLUT(r.Dev, row, col, n, TruthBuf); err != nil {
			return err
		}
		if err := s.port("q", i, core.Out).Bind(s.qPin(i)); err != nil {
			return err
		}
	}
	// The serial input enters bit 0's LUT.
	if err := s.port("sin", 0, core.In).Bind(lutIn(s.row, s.col, 0, 1)); err != nil {
		return err
	}
	if err := s.shiftChain(r, s.Bits); err != nil {
		return err
	}
	return s.routeClock(r, s.Clock, s.Bits, 2)
}
