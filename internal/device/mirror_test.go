package device_test

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
)

// TestMirrorReadsLogicFromBits: a mirror fed only the partial stream of
// each step answers every logic read as the device that made the stream,
// through a core churn — Implement, a run-time SetConstant, a §3.3 Replace
// that retunes and moves a core, a Remove, and a block RAM placed, rewritten
// and removed. The mirror never rebuilds: its routing state stays empty.
func TestMirrorReadsLogicFromBits(t *testing.T) {
	a := arch.NewVirtex()
	src, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(src)
	mul, err := cores.NewConstMul("mul", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	lfsr, err := cores.NewLFSR("lfsr", 5, 1, 4, 0b10110)
	if err != nil {
		t.Fatal(err)
	}
	ram := cores.NewRAM16x8("ram", [arch.BRAMWords]byte{1, 2, 3, 0xff})
	mul.Place(4, 10)
	lfsr.Place(11, 2)
	ram.Place(8, 6) // a BRAM column of 16x24 Virtex
	steps := []struct {
		name string
		do   func() error
	}{
		{"implement mul", func() error { return mul.Implement(r) }},
		{"implement lfsr", func() error { return lfsr.Implement(r) }},
		{"set constant", func() error { return mul.SetConstant(r, 1) }},
		{"replace mul", func() error {
			return cores.Replace(r, mul, 9, 10, []string{"p", "x"}, func() error { return mul.SetConstant(r, 2) })
		}},
		{"remove lfsr", func() error { return lfsr.Remove(r) }},
		{"implement ram", func() error { return ram.Implement(r) }},
		{"rewrite ram", func() error { return ram.SetContents(r, [arch.BRAMWords]byte{9: 0x5a}) }},
		{"remove ram", func() error { return ram.Remove(r) }},
		{"remove mul", func() error { return mul.Remove(r) }},
	}
	sawCLBs, sawBRAM := false, false
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		stream, err := src.PartialConfig()
		if err != nil {
			t.Fatal(err)
		}
		src.ClearDirty()
		if _, err := mirror.ApplyFramesRaw(stream); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for row := 0; row < src.Rows; row++ {
			for col := 0; col < src.Cols; col++ {
				for n := 0; n < device.NumLUTs; n++ {
					v, used := src.GetLUT(row, col, n)
					if mv, mused := mirror.GetLUT(row, col, n); mv != v || mused != used {
						t.Fatalf("%s: LUT %d at (%d,%d): mirror %#x %v, source %#x %v", st.name, n, row, col, mv, mused, v, used)
					}
					if mirror.FFInit(row, col, n) != src.FFInit(row, col, n) {
						t.Fatalf("%s: FF %d at (%d,%d): mirror %v, source %v", st.name, n, row, col, mirror.FFInit(row, col, n), src.FFInit(row, col, n))
					}
				}
				if mirror.CLBActive(row, col) != src.CLBActive(row, col) {
					t.Fatalf("%s: CLB (%d,%d) active: mirror %v, source %v", st.name, row, col, mirror.CLBActive(row, col), src.CLBActive(row, col))
				}
				w, used := src.GetBRAMInit(row, col)
				if mw, mused := mirror.GetBRAMInit(row, col); mw != w || mused != used {
					t.Fatalf("%s: BRAM (%d,%d): mirror %v %v, source %v %v", st.name, row, col, mw, mused, w, used)
				}
			}
		}
		if !slices.Equal(mirror.ActiveCLBs(), src.ActiveCLBs()) {
			t.Fatalf("%s: active CLBs: mirror %v, source %v", st.name, mirror.ActiveCLBs(), src.ActiveCLBs())
		}
		if !slices.Equal(mirror.ActiveBRAMs(), src.ActiveBRAMs()) {
			t.Fatalf("%s: active BRAMs: mirror %v, source %v", st.name, mirror.ActiveBRAMs(), src.ActiveBRAMs())
		}
		sawCLBs = sawCLBs || len(src.ActiveCLBs()) > 0
		sawBRAM = sawBRAM || len(src.ActiveBRAMs()) > 0
		if mirror.OnPIPCount() != 0 {
			t.Fatalf("%s: the mirror holds %d PIPs without a rebuild", st.name, mirror.OnPIPCount())
		}
	}
	if !sawCLBs || !sawBRAM || len(src.ActiveCLBs()) != 0 {
		t.Errorf("the churn configured CLBs %v and a BRAM %v, and left %d CLBs", sawCLBs, sawBRAM, len(src.ActiveCLBs()))
	}
}
