package device

import "repro/internal/arch"

// PIPBit exposes the per-tile bit of the PIP (from -> to) to the layout
// guard in package device_test.
func (d *Device) PIPBit(from, to arch.Wire) (int, bool) { return d.A.PIPBit(from, to) }
