package maze

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestTemplateMissFormatsNothing: the router tries template candidates
// through TemplateRouteTo and drops every miss, so a miss there formats no
// message: it costs the search's three scratch slices and the pinned end
// tile, four objects (eleven with the message); the start's taps go on the
// exits stack. The level-3 TemplateRoute still says which template failed
// where.
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
	if n := testing.AllocsPerRun(50, func() { _ = miss() }); n > 4 {
		t.Errorf("a TemplateRouteTo miss allocates %v objects, want at most 4", n)
	}
}
