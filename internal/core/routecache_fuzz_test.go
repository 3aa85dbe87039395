package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// FuzzTemplateRelocate churns the relocatable-template tier of the route
// cache: one (source wire, sink wire, Δrow, Δcol) shape is learned once,
// then fuzz bytes choose placements at which the same shape is routed
// (template replay at a shifted position) or torn down again. The router
// runs with ParanoidVerify, so after every op the committed frames are
// re-extracted and audited by the bitstream oracle. Routing failures are
// legal outcomes (off-template congestion, repeated pins); an oracle
// failure — a replayed template leaving contention, an antenna, or a
// phantom on the board — is the bug this fuzzer hunts.
func FuzzTemplateRelocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 5, 1, 8, 3, 0, 5, 5})
	f.Add([]byte{1, 2, 2, 1, 2, 2, 0, 2, 2, 1, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const rows, cols = 12, 12
		const dRow, dCol = 1, 2
		a := arch.NewVirtex()
		dev, err := device.New(a, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		r := New(dev, WithParanoidVerify(true))

		fatalIfOracle := func(what string, err error) {
			if err != nil && strings.Contains(err.Error(), "paranoid verify") {
				t.Fatalf("%s corrupted the board: %v", what, err)
			}
		}

		// Learn the shape at a fixed site, then free it for relocation.
		src, dst := NewPin(2, 2, arch.S1YQ), NewPin(2+dRow, 2+dCol, arch.S0F3)
		if err := r.RouteNet(src, dst); err != nil {
			t.Fatal(err)
		}
		if err := r.Unroute(src); err != nil {
			t.Fatal(err)
		}

		// Each op costs a full frame-level oracle audit (~30ms), so the
		// per-exec op budget is kept small to preserve fuzz throughput.
		routed := make(map[Pin]bool)
		for i := 0; i+3 <= len(data) && i < 3*8; i += 3 {
			row := int(data[i+1]) % (rows - dRow)
			col := int(data[i+2]) % (cols - dCol)
			s := NewPin(row, col, arch.S1YQ)
			if data[i]%4 == 0 && routed[s] {
				err := r.Unroute(s)
				fatalIfOracle("unroute", err)
				if err == nil {
					delete(routed, s)
				}
				continue
			}
			err := r.RouteNet(s, NewPin(row+dRow, col+dCol, arch.S0F3))
			fatalIfOracle("template route", err)
			if err == nil {
				routed[s] = true
			}
		}
	})
}
