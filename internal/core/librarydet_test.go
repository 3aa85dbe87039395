package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/library"
	"repro/internal/device"
	"repro/internal/workload"
)

// The library determinism construction, verified by the sweep below:
//
// A library file is the harvest of some warm-up workload W. A router that
// loads it and routes a relocated workload Q replays the same relative
// paths an in-session router would replay after learning W itself — so the
// honest baseline for "the library does not change routing results" is a
// library-less router that routes W, unroutes everything (device back to
// blank, learned templates retained), then routes Q. Both routers then
// face Q with identical template tiers and identical blank devices, and
// must configure byte-identical bitstreams — across any parallelism and
// either partition mode, with the library tier active or absent.
//
// (A naive cold-router baseline is NOT byte-comparable: replayed and
// searched paths may legally differ: fuzz.TestReplayKeepsRememberedDetour
// pins a replayed detour beside a fresh router's path. The library inherits
// the cache's guarantee — same template tier, same bytes — not a stronger
// one that no cache tier could satisfy.)

// fanWarmup returns the learning workload W, generated inside a shrunken
// sub-grid so that relocating by (shiftR, shiftC) keeps every pin on the
// array.
func fanWarmup(t *testing.T, rows, cols, shiftR, shiftC int) []workload.FanNet {
	t.Helper()
	g := workload.New(11, rows-shiftR, cols-shiftC)
	nets, err := g.FanNets(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return nets
}

// shiftFans relocates a workload: same wire classes, same Δrow/Δcol
// shapes, different absolute tiles — the exact case the template tier
// (learned or library) exists to serve.
func shiftFans(nets []workload.FanNet, dr, dc int) []workload.FanNet {
	out := make([]workload.FanNet, len(nets))
	for i, n := range nets {
		m := workload.FanNet{Src: core.NewPin(n.Src.Row+dr, n.Src.Col+dc, n.Src.W)}
		for _, s := range n.Sinks {
			m.Sinks = append(m.Sinks, core.NewPin(s.Row+dr, s.Col+dc, s.W))
		}
		out[i] = m
	}
	return out
}

func routeFans(t *testing.T, r *core.Router, nets []workload.FanNet) {
	t.Helper()
	for _, n := range nets {
		eps := make([]core.EndPoint, len(n.Sinks))
		for i, s := range n.Sinks {
			eps[i] = s
		}
		if err := r.RouteFanout(n.Src, eps); err != nil {
			t.Fatal(err)
		}
	}
}

// learnLibrary routes W on a scratch router, harvests the templates, and
// round-trips them through the binary format and the blank-device audit —
// the same path a jrouted -learn file takes to a daemon.
func learnLibrary(t *testing.T, rows, cols int, w []workload.FanNet) *library.Library {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(d)
	routeFans(t, r, w)
	b := library.NewBuilder(d.A.Name, rows, cols)
	if n := r.HarvestTemplates(b); n == 0 {
		t.Fatal("warm-up learned no templates")
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, st, err := library.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 0 {
		t.Fatalf("decode skipped %d freshly written entries", st.Skipped)
	}
	audited, skipped, err := l.Audit(arch.NewVirtex())
	if err != nil {
		t.Fatal(err)
	}
	// Every harvested entry came from a real search; the audit dropping one
	// would be a legality bug, and would also break the byte-determinism
	// construction (the baseline's learned tier would retain it).
	if skipped != 0 {
		t.Fatalf("audit dropped %d of %d learned entries", skipped, l.Len())
	}
	return audited
}

// TestLibraryDeterminismSweep: the acceptance sweep —
// {library on/off} x {parallelism 1,8} all produce byte-identical
// bitstreams for the relocated workload, and the library
// cells actually replay from the library.
func TestLibraryDeterminismSweep(t *testing.T) {
	const rows, cols = 16, 24
	const shiftR, shiftC = 3, 5
	w := fanWarmup(t, rows, cols, shiftR, shiftC)
	q := shiftFans(w, shiftR, shiftC)
	lib := learnLibrary(t, rows, cols, w)

	run := func(t *testing.T, withLib bool, par int) ([]byte, core.Stats) {
		t.Helper()
		d, err := device.New(arch.NewVirtex(), rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		opts := []core.Option{core.WithParallelism(par)}
		if withLib {
			opts = append(opts, core.WithLibrary(lib))
		}
		r := core.New(d, opts...)
		if !withLib {
			// In-session warm-up: learn W's templates, then return the
			// device to blank. The learned tier now mirrors the library.
			routeFans(t, r, w)
			if err := r.UnrouteAll(); err != nil {
				t.Fatal(err)
			}
		}
		routeFans(t, r, q)
		// Batch phase: exercises the parallelism dimension (incremental
		// routing ignores it) on top of the replayed state.
		srcs, dsts, err := workload.ForDevice(7, d).Bus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RouteBusBatch(srcs, dsts); err != nil {
			t.Fatal(err)
		}
		cfg, err := d.FullConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg, r.Stats()
	}

	var ref []byte
	for _, withLib := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("lib=%v/par=%d/partitioned", withLib, par)
			t.Run(name, func(t *testing.T) {
				cfg, stats := run(t, withLib, par)
				if ref == nil {
					ref = cfg
				} else if !bytes.Equal(cfg, ref) {
					t.Errorf("bitstream diverged from first cell")
				}
				if withLib {
					if stats.LibrarySeeded != lib.Len() {
						t.Errorf("LibrarySeeded %d, want %d", stats.LibrarySeeded, lib.Len())
					}
					if stats.LibraryHits == 0 {
						t.Error("library cell routed Q without a single library replay")
					}
					if stats.LibrarySkipped != 0 {
						t.Errorf("LibrarySkipped %d on an audited library", stats.LibrarySkipped)
					}
				} else if stats.LibraryHits != 0 || stats.LibrarySeeded != 0 {
					t.Errorf("library counters moved without a library: %+v", stats)
				}
			})
		}
	}
}

// TestLibraryStdlibStitch: a router seeded with the stdlib wiring manifest
// implements a core by stitching library templates, and produces the same
// bytes as a library-less implementation that had learned the same wiring
// in-session — the cores.Place-becomes-stitch-don't-search claim.
// (The cores side of the manifest lives in internal/cores; this test only
// needs the router-facing half: seeded replays keep bytes identical.)
func TestLibrarySeededReplayMatchesLearned(t *testing.T) {
	const rows, cols = 16, 24
	w := fanWarmup(t, rows, cols, 2, 2)
	lib := learnLibrary(t, rows, cols, w)
	q := shiftFans(w, 2, 2)

	// Learned: warm up in-session, blank, route Q.
	d1, _ := device.New(arch.NewVirtex(), rows, cols)
	r1 := core.New(d1)
	routeFans(t, r1, w)
	if err := r1.UnrouteAll(); err != nil {
		t.Fatal(err)
	}
	routeFans(t, r1, q)
	cfg1, err := d1.FullConfig()
	if err != nil {
		t.Fatal(err)
	}

	// Seeded: cold router, library attached, route Q directly.
	d2, _ := device.New(arch.NewVirtex(), rows, cols)
	r2 := core.New(d2, core.WithLibrary(lib))
	routeFans(t, r2, q)
	cfg2, err := d2.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cfg1, cfg2) {
		t.Error("seeded replay bytes differ from in-session learned replay")
	}
	if r2.Stats().LibraryHits == 0 {
		t.Error("seeded router never replayed from the library")
	}
	// The seeded router searched less than a cold one would have: every
	// library hit is a search avoided.
	if hits, routes := r2.Stats().LibraryHits, r2.Stats().Routes; hits > routes {
		t.Errorf("LibraryHits %d exceeds Routes %d", hits, routes)
	}
}

// TestLibraryAttachMismatch: a library for the wrong geometry or
// architecture is never consulted — the whole thing is counted skipped and
// the router stays library-less.
func TestLibraryAttachMismatch(t *testing.T) {
	w := fanWarmup(t, 16, 24, 2, 2)
	lib := learnLibrary(t, 16, 24, w)
	d, err := device.New(arch.NewVirtex(), 12, 18) // different geometry
	if err != nil {
		t.Fatal(err)
	}
	r := core.New(d, core.WithLibrary(lib))
	if r.Library() != nil {
		t.Error("geometry-mismatched library attached")
	}
	if got := r.Stats().LibrarySkipped; got != lib.Len() {
		t.Errorf("LibrarySkipped %d, want the whole library (%d)", got, lib.Len())
	}
	if err := r.RouteNet(core.NewPin(2, 2, arch.S0X), core.NewPin(5, 6, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	if r.Stats().LibraryHits != 0 || r.Stats().LibraryMisses != 0 {
		t.Error("library counters moved against a rejected library")
	}
}

// TestLibraryRestartThroughFile: the restart path a daemon takes —
// Builder.WriteFile, library.Load, core.WithLibrary — seeds a cold router
// from nothing but the file: it replays from the library, and its
// bitstream is byte-identical to the router that learned W in-session,
// blanked, and routed Q.
func TestLibraryRestartThroughFile(t *testing.T) {
	const rows, cols = 16, 24
	w := fanWarmup(t, rows, cols, 2, 3)
	q := shiftFans(w, 2, 3)

	d0, _ := device.New(arch.NewVirtex(), rows, cols)
	r0 := core.New(d0)
	routeFans(t, r0, w)
	b := library.NewBuilder(d0.A.Name, rows, cols)
	if r0.HarvestTemplates(b) == 0 {
		t.Fatal("warm-up learned no templates")
	}
	path := t.TempDir() + "/restart.jrtl"
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := r0.UnrouteAll(); err != nil {
		t.Fatal(err)
	}
	routeFans(t, r0, q)
	want, err := d0.FullConfig()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": everything below sees only the file.
	lib, st, err := library.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 0 {
		t.Fatalf("load skipped %d freshly written entries", st.Skipped)
	}
	d1, _ := device.New(arch.NewVirtex(), rows, cols)
	r1 := core.New(d1, core.WithLibrary(lib))
	if got := r1.Stats().LibrarySeeded; got != lib.Len() {
		t.Errorf("LibrarySeeded %d, want %d", got, lib.Len())
	}
	routeFans(t, r1, q)
	got, err := d1.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats().LibraryHits == 0 {
		t.Error("restarted router never replayed from the library file")
	}
	if !bytes.Equal(got, want) {
		t.Error("restarted router's bitstream differs from the warmed-then-UnrouteAll baseline")
	}
}
