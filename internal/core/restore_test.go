package core_test

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

func newTestDevice(t testing.TB) *device.Device {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotAdoptRoundTrip routes a working set on one router, snapshots
// it, adopts the records into a fresh router on a blank device, and expects
// (a) every connection restored by path replay, not search, and (b) a
// byte-identical configuration — the failover-replay contract.
func TestSnapshotAdoptRoundTrip(t *testing.T) {
	src := newTestDevice(t)
	ra := core.New(src)
	if err := ra.RouteNet(core.NewPin(5, 7, arch.S1YQ), core.NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := ra.RouteFanout(core.NewPin(2, 3, arch.S0YQ), []core.EndPoint{
		core.NewPin(4, 6, arch.S1F2), core.NewPin(1, 9, arch.S0F1), core.NewPin(6, 2, arch.S1F4),
	}); err != nil {
		t.Fatal(err)
	}
	recs := ra.SnapshotConnections()
	if len(recs) != 2 {
		t.Fatalf("snapshot has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if len(rec.Path) == 0 {
			t.Fatalf("record %v has no remembered path", rec.Source)
		}
	}

	dst := newTestDevice(t)
	rb := core.New(dst)
	for _, rec := range recs {
		if err := rb.AdoptConnection(rec); err != nil {
			t.Fatalf("adopt %v: %v", rec.Source, err)
		}
	}
	st := rb.Stats()
	if st.CacheHits != 2 {
		t.Errorf("adoption paid %d cache hits, want 2 (replay-first)", st.CacheHits)
	}
	if st.MazeFallbacks != 0 {
		t.Errorf("adoption fell back to %d maze searches, want 0", st.MazeFallbacks)
	}
	want, err := src.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("adopted configuration diverges from the original bitstream")
	}
	// Idempotence: adopting an already-live record is a no-op.
	for _, rec := range recs {
		if err := rb.AdoptConnection(rec); err != nil {
			t.Fatalf("re-adopt %v: %v", rec.Source, err)
		}
	}
	if got2, _ := dst.FullConfig(); !bytes.Equal(want, got2) {
		t.Fatal("re-adoption changed the bitstream")
	}
}

// TestAdoptWithoutPath: path memory is part of the connection record, so a
// route's snapshot carries the path. A record stripped of its path (say,
// from an older peer) must still adopt, through search.
func TestAdoptWithoutPath(t *testing.T) {
	src := newTestDevice(t)
	ra := core.New(src)
	if err := ra.RouteNet(core.NewPin(5, 7, arch.S1YQ), core.NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	recs := ra.SnapshotConnections()
	if len(recs) != 1 || len(recs[0].Path) == 0 {
		t.Fatalf("snapshot = %+v, want one record with a remembered path", recs)
	}
	recs[0].Path = nil
	dst := newTestDevice(t)
	rb := core.New(dst)
	if err := rb.AdoptConnection(recs[0]); err != nil {
		t.Fatal(err)
	}
	net, err := rb.Trace(core.NewPin(5, 7, arch.S1YQ))
	if err != nil || len(net.Sinks) != 1 {
		t.Fatalf("trace after pathless adopt: %v, %+v", err, net)
	}
}

// TestFunctionalOptions: core.New composes the same Options the struct
// literal would, and the router honors them.
func TestFunctionalOptions(t *testing.T) {
	d := newTestDevice(t)
	r := core.New(d,
		core.WithAlgorithm(core.AStar),
		core.WithParallelism(3),
		core.WithLongLines(true),
		core.WithTimingDriven(false),
		core.WithParanoidVerify(false),
	)
	want := core.Options{Algorithm: core.AStar, Parallelism: 3, UseLongLines: true}
	if got := r.Options(); got != want {
		t.Errorf("Options = %+v, want %+v", got, want)
	}
	if err := r.RouteNet(core.NewPin(5, 7, arch.S1YQ), core.NewPin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TemplateHits != 0 || st.MazeFallbacks != 1 {
		t.Errorf("WithAlgorithm(AStar) not honored: %+v", st)
	}
}

// TestImportKeepsInheritedTrunk: a reverse unroute that drops the record
// which routed a trunk, while a later record of the net still branches off
// it, hands the trunk to that record. So every PIP is on a record's path,
// and an export imported onto a blank router replays every net and holds
// the original bytes.
func TestImportKeepsInheritedTrunk(t *testing.T) {
	src := newTestDevice(t)
	ra := core.New(src)
	from := core.NewPin(7, 2, arch.S0X)
	for _, sink := range []core.Pin{core.NewPin(7, 20, arch.S0F1), core.NewPin(9, 14, arch.S1G1)} {
		if err := ra.RouteNet(from, sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.ReverseUnroute(core.NewPin(7, 20, arch.S0F1)); err != nil {
		t.Fatal(err)
	}
	live, mem := ra.Export()
	if len(live) != 1 || len(mem) != 0 {
		t.Fatalf("export holds %d live and %d remembered records, want 1 and 0", len(live), len(mem))
	}
	if want := src.OnPIPCount(); len(live[0].Path) != want {
		t.Fatalf("the record left holds %d of the net's %d PIPs", len(live[0].Path), want)
	}
	dst := newTestDevice(t)
	rb := core.New(dst)
	if err := rb.Import(live, mem); err != nil {
		t.Fatal(err)
	}
	if st := rb.Stats(); st.CacheHits != 1 || st.MazeFallbacks != 0 {
		t.Errorf("the import replayed %d and searched %d nets, want 1 and 0", st.CacheHits, st.MazeFallbacks)
	}
	want, _ := src.FullConfig()
	if got, _ := dst.FullConfig(); !bytes.Equal(got, want) {
		t.Error("the imported configuration differs from the original")
	}
}
