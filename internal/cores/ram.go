package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
)

// RAM16x8 wraps one block-RAM site (§6 "Block RAM will be supported in a
// future release", implemented): a synchronous 16-word x 8-bit memory with
// a registered read port. Groups:
//
//	"addr" In  — 4 address bits
//	"din"  In  — 8 data-in bits (leave unconnected for a ROM)
//	"we"   In  — write enable (reads 0 when unconnected)
//	"dout" Out — 8 registered data-out bits
//
// The initial contents are a run-time parameter: SetContents rewrites the
// configuration like ConstMul.SetConstant rewrites truth tables.
type RAM16x8 struct {
	Base
	Contents [arch.BRAMWords]byte
	Clock    int
}

// NewRAM16x8 creates an unplaced RAM with the given initial contents.
func NewRAM16x8(name string, contents [arch.BRAMWords]byte) *RAM16x8 {
	m := &RAM16x8{Contents: contents}
	m.init(name, 1, 1)
	return m
}

// NewROM16x8 creates a RAM intended as a ROM: same hardware, but the
// caller simply leaves "we" and "din" unconnected so the contents never
// change at run time.
func NewROM16x8(name string, table [arch.BRAMWords]byte) *RAM16x8 {
	return NewRAM16x8(name, table)
}

// Implement configures the site and binds the ports. The placement column
// must be a BRAM column of the architecture.
func (m *RAM16x8) Implement(r *core.Router) (err error) {
	if !m.placed {
		return fmt.Errorf("cores: %s is not placed", m.name)
	}
	if !r.Dev.A.BRAMColumn(m.col) {
		return fmt.Errorf("cores: %s placed at column %d, which is not a BRAM column of %s",
			m.name, m.col, r.Dev.A.Name)
	}
	if m.row < 0 || m.row >= r.Dev.Rows {
		return fmt.Errorf("cores: %s row %d outside array", m.name, m.row)
	}
	if _, used := r.Dev.GetBRAMInit(m.row, m.col); used {
		return fmt.Errorf("cores: BRAM site (%d,%d) already in use", m.row, m.col)
	}
	m.since = r.Seq()
	defer m.settle(r, m, &err)
	if err := r.Dev.SetBRAMInit(m.row, m.col, m.Contents); err != nil {
		return err
	}
	for i := 0; i < arch.NumBRAMAddr; i++ {
		if err := m.port("addr", i, core.In).Bind(core.NewPin(m.row, m.col, arch.BRAMAddr(i))); err != nil {
			return err
		}
	}
	for i := 0; i < arch.NumBRAMDin; i++ {
		if err := m.port("din", i, core.In).Bind(core.NewPin(m.row, m.col, arch.BRAMDin(i))); err != nil {
			return err
		}
	}
	if err := m.port("we", 0, core.In).Bind(core.NewPin(m.row, m.col, arch.BRAMWE())); err != nil {
		return err
	}
	for i := 0; i < arch.NumBRAMDout; i++ {
		if err := m.port("dout", i, core.Out).Bind(core.NewPin(m.row, m.col, arch.BRAMDout(i))); err != nil {
			return err
		}
	}
	if err := r.RouteClock(m.Clock, core.NewPin(m.row, m.col, arch.BRAMClk())); err != nil {
		return err
	}
	return nil
}

// SetContents rewrites the memory's configured contents at run time (a
// pure configuration rewrite; routing and ports stay put). A running
// simulator picks the new contents up on Refresh.
func (m *RAM16x8) SetContents(r *core.Router, contents [arch.BRAMWords]byte) error {
	m.Contents = contents
	if !m.implemented {
		return nil
	}
	return r.Dev.SetBRAMInit(m.row, m.col, contents)
}

// Remove clears the site and its clock tap. External nets to the ports
// must be unrouted by the caller first (§3.3), as with every core.
func (m *RAM16x8) Remove(r *core.Router) error {
	if err := m.Base.Remove(r); err != nil {
		return err
	}
	return r.Dev.ClearBRAM(m.row, m.col)
}
