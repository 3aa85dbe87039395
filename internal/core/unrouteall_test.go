package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// refUnrouteAll is the layered loop UnrouteAll ran before it became one
// sweep, on the device alone: read every on-PIP, clear those whose target
// drives nothing, and read them all again until none is left. It returns
// how many PIPs it cleared.
func refUnrouteAll(d *device.Device) (cleared int, err error) {
	for {
		pips := d.AllOnPIPs()
		if len(pips) == 0 {
			return cleared, nil
		}
		progress := false
		for _, p := range pips {
			t, err := d.Canon(p.Row, p.Col, p.To)
			if err != nil {
				return cleared, err
			}
			// Only clear PIPs whose target drives nothing (leaves).
			if d.FanoutCount(t) > 0 {
				continue
			}
			if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
				return cleared, err
			}
			cleared++
			progress = true
		}
		if !progress {
			return cleared, fmt.Errorf("core: unroute-all stuck with %d PIPs (routing cycle?)", len(pips))
		}
	}
}

// TestUnrouteAllSweepMatchesLayers: UnrouteAll reads the on-PIPs once and
// clears each leaf and the driver chain above it. On a routed
// Clustered(6, 32, 5) design — batch_reload's knots — it must clear what
// the layered loop clears: the same count of PIPs, the same dirty frames
// with the same bytes, a configuration byte-equal to a fresh device's, and
// no live record left.
func TestUnrouteAllSweepMatchesLayers(t *testing.T) {
	routed := func() *core.Router {
		d, err := device.New(arch.NewVirtex(), 64, 96)
		if err != nil {
			t.Fatal(err)
		}
		srcs, dsts, err := workload.ForDevice(1, d).ClusteredPins(6, 32, 5)
		if err != nil {
			t.Fatal(err)
		}
		r := core.New(d)
		if err := r.RouteBatch(pinNets(srcs, dsts)); err != nil {
			t.Fatal(err)
		}
		d.ClearDirty()
		return r
	}
	r, ref := routed(), routed()
	on := r.Dev.OnPIPCount()
	before := r.Stats()
	if err := r.UnrouteAll(); err != nil {
		t.Fatal(err)
	}
	want, err := refUnrouteAll(ref.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Sub(before).PIPsCleared; got != want || got != on {
		t.Errorf("UnrouteAll cleared %d PIPs, the layered loop %d, of %d on", got, want, on)
	}
	got, err := r.Dev.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	wantPartial, err := ref.Dev.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.DirtyFrameCount() != ref.Dev.DirtyFrameCount() || !bytes.Equal(got, wantPartial) {
		t.Errorf("UnrouteAll dirtied %d frames, the layered loop %d, or their bytes differ",
			r.Dev.DirtyFrameCount(), ref.Dev.DirtyFrameCount())
	}
	fresh, err := device.New(arch.NewVirtex(), 64, 96)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	blank, err := fresh.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, blank) {
		t.Error("the configuration after UnrouteAll differs from a fresh device's")
	}
	if n := r.ConnectionCount(); n != 0 {
		t.Errorf("UnrouteAll left %d live records", n)
	}
}
