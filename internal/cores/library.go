package cores

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/library"
	"repro/internal/device"
)

// LearnStdlib implements the standard core library on a blank scratch
// device of the given architecture and geometry, removes each core again,
// and harvests every route template the internal wiring taught the route
// cache into b. The result is the pre-routed intra-core wiring manifest of
// the stdlib: a daemon that loads the written library stitches core
// internals from relocatable templates instead of re-searching them, so
// cores.Place + Implement on a cold router replays instead of explores.
//
// Cores whose footprint does not fit the geometry are skipped — a tiny
// test grid still learns whatever fits. Returns the number of templates
// harvested.
func LearnStdlib(a *arch.Arch, rows, cols int, b *library.Builder) (int, error) {
	dev, err := device.New(a, rows, cols)
	if err != nil {
		return 0, fmt.Errorf("cores: learn scratch device: %w", err)
	}
	r := core.New(dev)

	// Each exercise builds one unplaced core. Constructors that cannot fail
	// with these literals panic on error — a failure here is a programming
	// bug in the manifest, not an input condition.
	must := func(c Core, err error) Core {
		if err != nil {
			panic(fmt.Sprintf("cores: stdlib manifest: %v", err))
		}
		return c
	}
	exercises := []func() Core{
		func() Core { return must(NewConstAdder("lib.add", 4, 1, false)) },
		func() Core { return must(NewConstAdder("lib.addr", 4, 3, true)) },
		func() Core { return must(NewCounter("lib.ctr", 4, 1)) },
		func() Core { return must(NewShiftRegister("lib.shift", 8)) },
		func() Core { return must(NewConstMul("lib.mul", 5, 4)) },
		func() Core { return must(NewRegister("lib.reg", 4)) },
		func() Core { return NewRAM16x8("lib.ram", [arch.BRAMWords]byte{}) },
	}
	for _, mk := range exercises {
		c := mk()
		_, _, w, h := c.Bounds()
		row, col := rows/2-h/2, cols/2-w/2
		if _, isRAM := c.(*RAM16x8); isRAM {
			// BRAM sites only exist in BRAM columns; find one.
			col = -1
			for cc := 0; cc < cols; cc++ {
				if a.BRAMColumn(cc) {
					col = cc
					break
				}
			}
		}
		if row < 0 || col < 0 || row+h > rows || col+w > cols {
			continue // geometry too small (or no BRAM column) — skip
		}
		if err := c.Place(row, col); err != nil {
			return 0, err
		}
		if err := c.Implement(r); err != nil {
			return 0, fmt.Errorf("cores: learning stdlib wiring: %w", err)
		}
		// Remove returns the scratch device to blank so the next core's
		// placement never conflicts; the learned templates survive in the
		// route cache.
		if err := c.Remove(r); err != nil {
			return 0, err
		}
	}
	return r.HarvestTemplates(b), nil
}
