package maze

import (
	"errors"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestTemplateMissFormatsNothing: the router tries template candidates
// through TemplateRouteTo and drops every miss, so a miss there formats no
// message, and it searches in scratch — the path, the tracks it drives, the
// exits stack and the pinned end tile — so a miss allocates nothing (four
// objects when those were per call, eleven with the message). The level-3
// TemplateRoute still says which template failed where.
func TestTemplateMissFormatsNothing(t *testing.T) {
	d := virtexDev(t)
	src, _ := d.Canon(5, 7, arch.S1YQ)
	tmpl := []arch.TemplateValue{arch.TVOutMux, arch.TVEast1, arch.TVClbIn}
	miss := func() error {
		_, err := TemplateRouteTo(d, src, arch.Out(7), device.Coord{Row: 5, Col: 8}, tmpl, Options{})
		return err
	}
	if err := miss(); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("TemplateRouteTo miss: %v", err)
	}
	if _, err := TemplateRoute(d, src, arch.Out(7), tmpl); !errors.Is(err, ErrUnroutable) ||
		err.Error() != "maze: no available resources follow template [OUTMUX EAST1 CLBIN] from S1YQ at (5,7): unroutable" {
		t.Errorf("TemplateRoute miss: %v", err)
	}
	if RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection empties the scratch pool
	if n := testing.AllocsPerRun(50, func() { _ = miss() }); n != 0 {
		t.Errorf("a TemplateRouteTo miss allocates %v objects, want 0", n)
	}
}
