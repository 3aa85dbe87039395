package maze_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/maze"
	"repro/internal/timing"
)

// TestTimingCostMatchesDefault: the delay-driven search costs each wire
// class what timing.Default says it delays, in tenths of a nanosecond, so
// the path the search prefers is the one the timing model reports fastest.
func TestTimingCostMatchesDefault(t *testing.T) {
	m := timing.Default()
	for _, c := range []struct {
		name  string
		kinds []arch.Kind
		ns    float64
	}{
		{"single", []arch.Kind{arch.KindSingle}, m.Single},
		{"hex", []arch.Kind{arch.KindHex}, m.Hex},
		{"long", []arch.Kind{arch.KindLongH, arch.KindLongV}, m.Long},
		{"out-mux", []arch.Kind{arch.KindOutMux}, m.OutMux},
		{"input/ctrl", []arch.Kind{arch.KindInput, arch.KindCtrl}, m.Input},
	} {
		want := int(c.ns*10 + 0.5)
		for _, k := range c.kinds {
			if got := maze.TimingCost(k); got != want {
				t.Errorf("%s (kind %d): search cost %d, timing.Default %.1f ns = %d", c.name, k, got, c.ns, want)
			}
		}
	}
}
