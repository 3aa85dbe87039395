package debug

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestPaperE1VirtexArchitecture is Fig. 1 and §2: the Virtex routing
// resources as the routing API sees them — 24 singles a direction, 12
// CLB-accessible length-6 hexes a direction (every second bidirectional),
// 12 horizontal and 12 vertical long lines tapped every 6 blocks, 4
// dedicated clock nets — on arrays from 16×24 to 64×96. The configuration
// size of a tile and of each array is pinned, and ArchAudit reports it.
func TestPaperE1VirtexArchitecture(t *testing.T) {
	a := arch.NewVirtex()
	got := [...]int{a.SinglesPerDir, a.HexesPerDir, a.HexLen, a.BidiHexPeriod, a.NumLong, a.LongAccessPeriod, arch.NumGClk}
	if want := [...]int{24, 12, 6, 2, 12, 6, 4}; got != want {
		t.Errorf("singles, hexes, hex length, bidi period, longs, long period, clocks = %v, want %v", got, want)
	}
	sizes := arch.VirtexSizes()
	if first, last := sizes[0], sizes[len(sizes)-1]; first.Rows != 16 || first.Cols != 24 || last.Rows != 64 || last.Cols != 96 {
		t.Errorf("array range %dx%d .. %dx%d, want 16x24 .. 64x96", first.Rows, first.Cols, last.Rows, last.Cols)
	}
	for i, frames := range []int{15096, 30192, 52836, 60384} {
		d, err := device.New(a, sizes[i].Rows, sizes[i].Cols)
		if err != nil {
			t.Fatal(err)
		}
		if d.PIPBitCount() != 4824 || d.FrameCount() != frames {
			t.Errorf("%s: %d PIP bits per tile, %d frames; pinned 4824, %d",
				sizes[i].Name, d.PIPBitCount(), d.FrameCount(), frames)
		}
	}
	if audit := ArchAudit(rig(t).Dev); !strings.Contains(audit, "4824 PIP bits per tile, 15096 frames total") {
		t.Errorf("audit does not report the configuration size:\n%s", audit)
	}
}
