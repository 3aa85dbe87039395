package server_test

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/library"
	"repro/internal/cores"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
)

// stdlibLibrary learns the stdlib wiring manifest for the test geometry.
func stdlibLibrary(t *testing.T) *library.Library {
	t.Helper()
	b := library.NewBuilder("virtex", 16, 24)
	if _, err := cores.LearnStdlib(arch.NewVirtex(), 16, 24, b); err != nil {
		t.Fatal(err)
	}
	return b.Library()
}

// TestServiceLibraryStats: a daemon seeded with a template library
// reports the library counters through statsz — seeded entries appear at
// boot (before any op folds a delta in), and a core instantiation that
// stitches from the library moves the hit counter.
func TestServiceLibraryStats(t *testing.T) {
	ctx := context.Background()
	lib := stdlibLibrary(t)
	addr, _ := startDaemon(t, server.Options{Library: lib}, "dev")
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := stats.Sessions["dev"]
	if !ok {
		t.Fatal("statsz missing session")
	}
	if ss.LibrarySeeded != lib.Len() {
		t.Errorf("library_seeded = %d at boot, want %d", ss.LibrarySeeded, lib.Len())
	}
	if ss.LibraryHits != 0 {
		t.Errorf("library_hits = %d before any traffic", ss.LibraryHits)
	}

	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.NewCore(ctx, protocol.CoreMsg{Name: "ctr", Kind: "counter", Row: 3, Col: 4, Bits: 4}); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Sessions["dev"].LibraryHits; got == 0 {
		t.Error("core instantiation on a seeded daemon never hit the library")
	}

	// A route whose shape the stdlib manifest never learned counts a miss.
	if err := s.Route(ctx, client.Pin(core.NewPin(12, 18, arch.S1YQ)),
		client.Pin(core.NewPin(13, 20, arch.S0F3))); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Sessions["dev"].LibraryMisses; got == 0 {
		t.Error("library_misses never moved on a seeded daemon")
	}
}
