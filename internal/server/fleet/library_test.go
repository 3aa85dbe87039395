package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/library"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/protocol"
)

// TestLibraryAuditedOnce: one loaded library is audited once, whoever
// attaches it. A compatible library whose stdlib entries carry two that
// fail the blank-device audit seeds a bare router, a daemon's static
// device, both boards of a 2+1 fleet and the spare that replaces a killed
// one; every router reports the same entries seeded and the two skipped,
// and the routers all hold the one audited library.
func TestLibraryAuditedOnce(t *testing.T) {
	const k = 2
	a := arch.NewVirtex()
	b := library.NewBuilder(a.Name, 16, 24)
	if _, err := cores.LearnStdlib(a, 16, 24, b); err != nil {
		t.Fatal(err)
	}
	b.Add(library.Key{SrcW: 9999, SinkW: 9998, DRow: 1, DCol: 1},
		[]device.PIP{{Row: 0, Col: 0, From: 9999, To: 9998}})
	b.Add(library.Key{SrcW: 3, SinkW: 9, DRow: 0, DCol: 500},
		[]device.PIP{{Row: 0, Col: 500, From: 3, To: 9}})
	lib := b.Library()
	seeded := lib.Len() - k

	dev, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(what string, gotSeeded, gotSkipped int) {
		t.Helper()
		if gotSeeded != seeded || gotSkipped != k {
			t.Errorf("%s: %d seeded, %d skipped; want %d and %d", what, gotSeeded, gotSkipped, seeded, k)
		}
	}
	bare := core.New(dev, core.WithLibrary(lib))
	audited := bare.Library()
	counts("bare router", bare.Stats().LibrarySeeded, bare.Stats().LibrarySkipped)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv := server.NewServer(server.WithLibrary(lib))
	if err := srv.AddDevice("dev", a.Name, 16, 24); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(ctx) }()
	st := srv.Stats().Sessions["dev"]
	counts("static device", st.LibrarySeeded, st.LibrarySkipped)

	c, err := New(Config{Boards: 2, Spares: 1, Rows: 16, Cols: 24, Opts: server.Options{Library: lib}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Shutdown(ctx) }()
	checkSlot := func(i int) {
		t.Helper()
		b, w, _, _, _ := c.slots[i].current()
		var got *library.Library
		if err := w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
			got = r.Library()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		st := w.StatsSnapshot()
		counts(b.name, st.LibrarySeeded, st.LibrarySkipped)
		if got != audited {
			t.Errorf("%s holds another audited copy than the bare router's", b.name)
		}
	}
	checkSlot(0)
	checkSlot(1)

	key := uint64(0)
	if r := c.Submit(ctx, &protocol.Request{Op: "connect", Session: "s", Key: &key}); r.Err != "" {
		t.Fatalf("connect: %s", r.Err)
	}
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	c.ProbeAll(ctx)
	if c.Epoch(0) != 2 {
		t.Fatalf("slot 0 at epoch %d after its board died, want 2", c.Epoch(0))
	}
	checkSlot(0)
}
