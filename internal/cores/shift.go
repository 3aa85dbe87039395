package cores

import (
	"fmt"

	"repro/internal/arch"
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

func (s *ShiftRegister) bitSite(i int) (row, col, n int) {
	return s.row + i/4, s.col, i % 4
}

func (s *ShiftRegister) qPin(i int) core.Pin {
	row, col, n := s.bitSite(i)
	return core.NewPin(row, col, ffOutPin(n))
}

// Implement configures buffer LUTs, routes the shift chain, binds ports,
// and routes the clock.
func (s *ShiftRegister) Implement(r *core.Router) (err error) {
	if err := s.begin(r); err != nil {
		return err
	}
	defer s.settle(r, s, &err)
	var clkPins []core.EndPoint
	for i := 0; i < s.Bits; i++ {
		row, col, n := s.bitSite(i)
		if err := s.setLUT(r.Dev, row, col, n, TruthBuf); err != nil {
			return err
		}
		if err := s.port("q", i, core.Out).Bind(s.qPin(i)); err != nil {
			return err
		}
		clk := arch.S0CLK
		if n/2 == 1 {
			clk = arch.S1CLK
		}
		clkPins = append(clkPins, core.NewPin(row, col, clk))
	}
	// The serial input enters bit 0's LUT.
	row0, col0, n0 := s.bitSite(0)
	if err := s.port("sin", 0, core.In).Bind(
		core.NewPin(row0, col0, arch.LUTInput(n0/2, n0%2, 1)),
	); err != nil {
		return err
	}
	// Shift chain: q[i-1] -> d[i].
	for i := 1; i < s.Bits; i++ {
		row, col, n := s.bitSite(i)
		d := core.NewPin(row, col, arch.LUTInput(n/2, n%2, 1))
		if err := r.RouteNet(s.qPin(i-1), d); err != nil {
			return err
		}
	}
	if err := r.RouteClock(s.Clock, clkPins...); err != nil {
		return err
	}
	return nil
}
