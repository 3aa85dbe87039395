package cores

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/oracle"
)

// auditStrict checks r's board against the oracle with coverage on.
func auditStrict(t *testing.T, r *core.Router) []byte {
	t.Helper()
	stream, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Audit(r.Dev.A, stream, r.OracleClaims(), true); err != nil {
		t.Fatalf("strict audit: %v", err)
	}
	return stream
}

// TestFailedImplementTakesBackWhatItSet: a core placed where another global
// clock already drives one of its clock pins fails at its clock, after its
// LUTs (and, for the adder, its carry chain) are on the device. The failed
// Implement leaves the device as it found it — LUTs, PIPs and the other
// clock's tap — and the core can then go elsewhere.
func TestFailedImplementTakesBackWhatItSet(t *testing.T) {
	for name, mk := range map[string]func() (Core, error){
		"register": func() (Core, error) { return NewRegister("reg", 4) },
		"adder":    func() (Core, error) { return NewConstAdder("add", 4, 5, true) },
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t)
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, h := c.Bounds()
			// Global clock 1 on the core's top slice-1 clock pin; the
			// core clocks from global clock 0.
			if err := r.RouteClock(1, core.NewPin(7+h-1, 11, arch.S1CLK)); err != nil {
				t.Fatal(err)
			}
			before := auditStrict(t, r)
			if err := c.Place(7, 11); err != nil {
				t.Fatal(err)
			}
			var ce *device.ContentionError
			if err := c.Implement(r); !errors.As(err, &ce) {
				t.Fatalf("Implement onto a driven clock pin: %v, want a contention error", err)
			}
			if after := auditStrict(t, r); !bytes.Equal(after, before) || c.Implemented() || r.ConnectionCount() != 1 {
				t.Fatalf("failed Implement left the device changed=%v, implemented=%v, %d records",
					!bytes.Equal(after, before), c.Implemented(), r.ConnectionCount())
			}
			if err := c.Place(2, 3); err != nil {
				t.Fatal(err)
			}
			if err := c.Implement(r); err != nil {
				t.Fatal(err)
			}
			auditStrict(t, r)
			if err := c.Remove(r); err != nil {
				t.Fatal(err)
			}
			if after := auditStrict(t, r); !bytes.Equal(after, before) {
				t.Error("Remove left the device changed")
			}
		})
	}
}

// TestRipUpRegionRipsManualRoute: a path routed by hand (§3.1 level 2, then
// a level-1 PIP extending it) crossing a region is ripped with it like any
// recorded net, and putBack restores both records' PIPs.
func TestRipUpRegionRipsManualRoute(t *testing.T) {
	r := newRig(t)
	a := r.Dev.A
	if err := r.RoutePath(core.NewPath(5, 7, []arch.Wire{
		arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
	})); err != nil {
		t.Fatal(err)
	}
	if err := r.Route(5, 7, arch.S1YQ, arch.S1F4); err != nil {
		t.Fatal(err)
	}
	want := auditStrict(t, r)
	ripped, err := r.RipUpRegion(5, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ripped) != 2 || r.Dev.OnPIPCount() != 0 || r.ConnectionCount() != 0 {
		t.Fatalf("rip-up took %d records, left %d PIPs and %d records", len(ripped), r.Dev.OnPIPCount(), r.ConnectionCount())
	}
	cause := errors.New("cause")
	if err := putBack(r, ripped, cause); err != cause {
		t.Fatalf("putBack: %v", err)
	}
	if got := auditStrict(t, r); !bytes.Equal(got, want) || r.ConnectionCount() != 2 {
		t.Errorf("after putBack: same bytes=%v, %d records", bytes.Equal(got, want), r.ConnectionCount())
	}
}
