package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/server/protocol"
)

func pinMsg(row, col int, w arch.Wire) EndPointMsg {
	return EndPointMsg{Pin: protocol.PinMsg{Row: row, Col: col, Wire: int(w)}}
}

func routeReq(session string, src, sink EndPointMsg) *Request {
	return &Request{Op: "route", Session: session, Source: &src, Sinks: []EndPointMsg{sink}}
}

// TestFailedBusLeavesNothingBehind: a mutating op that fails ships no
// frames and journals nothing, so the router must not have moved either —
// the board, the client mirror and the failover journal would otherwise lag
// it until some later op flushed the dirty set. The reproducer is the bus
// whose third bit's sink is taken: before RouteBus was all-or-nothing, bits
// 0 and 1 stayed routed behind the error answer.
func TestFailedBusLeavesNothingBehind(t *testing.T) {
	shipped, journaled := 0, 0
	w, err := NewWorker(WorkerConfig{Name: "dev", Rows: 16, Cols: 24,
		ShipHook:    func([]byte, int) error { shipped++; return nil },
		JournalHook: func([]byte) { journaled++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); <-w.Done() }()
	ctx := context.Background()

	bus := &Request{Op: "bus", Session: "dev"}
	for i := 0; i < 4; i++ {
		bus.Sources = append(bus.Sources, pinMsg(4, 4+i, arch.S0X))
		bus.Sinks = append(bus.Sinks, pinMsg(9, 15+i, arch.S0F1))
	}
	if resp := w.Submit(ctx, routeReq("dev", pinMsg(12, 3, arch.S0X), bus.Sinks[2])); resp.Err != "" {
		t.Fatalf("blocker route: %s", resp.Err)
	}
	state := func() (conns, dirty, pips int) {
		t.Helper()
		if err := w.Do(ctx, func(r *core.Router, js *jbits.Session) error {
			conns, dirty, pips = r.ConnectionCount(), js.Dev.DirtyFrameCount(), js.Dev.OnPIPCount()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return
	}
	conns, dirty, pips := state()
	if dirty != 0 {
		t.Fatalf("%d frames dirty after an acknowledged op", dirty)
	}

	resp := w.Submit(ctx, bus)
	if resp.ErrorCode != protocol.CodeRoute || resp.FrameN != 0 || len(resp.Frames) != 0 {
		t.Fatalf("bus onto an occupied sink answered code %q with %d frames: %s", resp.ErrorCode, resp.FrameN, resp.Err)
	}
	if shipped != 1 || journaled != 1 {
		t.Errorf("failed op reached the hooks: %d shipped, %d journaled, want 1 and 1 (the blocker)", shipped, journaled)
	}
	if c, d, p := state(); c != conns || d != 0 || p != pips {
		t.Errorf("failed bus left %d records, %d dirty frames, %d PIPs; want %d, 0, %d", c, d, p, conns, pips)
	}
}

// TestPanicQuarantinesOneSession: an op that panics takes down its own
// session and nothing else. The panicking task and every later one on that
// session answer CodeInternal without reaching the router; the daemon's
// other session keeps routing; and the quarantined worker still drains, so
// Shutdown returns.
func TestPanicQuarantinesOneSession(t *testing.T) {
	srv := NewServer()
	for _, name := range []string{"a", "b"} {
		if err := srv.AddDevice(name, "virtex", 16, 24); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	src, sink := pinMsg(5, 7, arch.S1YQ), pinMsg(6, 8, arch.S0F3)

	err := srv.sessions["a"].Do(ctx, func(*core.Router, *jbits.Session) error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking task returned %v", err)
	}
	touched := false
	err = srv.sessions["a"].Do(ctx, func(*core.Router, *jbits.Session) error { touched = true; return nil })
	if err == nil || touched {
		t.Fatalf("task after the panic: err %v, ran %v", err, touched)
	}
	resp := srv.dispatch(routeReq("a", src, sink))
	if resp.ErrorCode != protocol.CodeInternal || !strings.Contains(resp.Err, "quarantined") {
		t.Fatalf("op on the quarantined session answered code %q: %s", resp.ErrorCode, resp.Err)
	}
	if resp := srv.dispatch(routeReq("b", src, sink)); resp.Err != "" || resp.FrameN == 0 {
		t.Fatalf("the other session stopped routing: %d frames, %s", resp.FrameN, resp.Err)
	}

	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a quarantined session: %v", err)
	}
}

// TestStatsAreTheRouters: the router-derived statsz fields have one
// definition, the router's own counters. After a fixed op script — search,
// rip-up, replay, negotiation, a core placed and moved — each equals its
// core.Stats field read through Do.
func TestStatsAreTheRouters(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Name: "dev", Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); <-w.Done() }()
	ctx := context.Background()
	src, sink := pinMsg(5, 7, arch.S1YQ), pinMsg(6, 8, arch.S0F3)
	for i, req := range []*Request{
		routeReq("dev", src, sink),
		{Op: "unroute", Session: "dev", Source: &src},
		routeReq("dev", src, sink),
		{Op: "batch", Session: "dev", Nets: []protocol.NetMsg{{Source: pinMsg(10, 2, arch.OutPin(0)),
			Sinks: []EndPointMsg{pinMsg(13, 6, arch.Input(0))}}}},
		{Op: "core_new", Session: "dev", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}},
		{Op: "core_replace", Session: "dev", Core: &protocol.CoreMsg{Name: "reg", Row: 9, Col: 16}},
	} {
		if resp := w.Submit(ctx, req); resp.Err != "" {
			t.Fatalf("op %d (%s): %s", i, req.Op, resp.Err)
		}
	}
	var st core.Stats
	var conns int
	if err := w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
		st, conns = r.Stats(), r.ConnectionCount()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := w.StatsSnapshot()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"Routes", got.Routes, st.Routes},
		{"RipUps", got.RipUps, st.PIPsCleared},
		{"BatchIterations", got.BatchIterations, st.BatchIterations},
		{"CacheHits", got.CacheHits, st.CacheHits},
		{"CacheMisses", got.CacheMisses, st.CacheMisses},
		{"ReplayFails", got.ReplayFails, st.ReplayFails},
		{"NodesExplored", got.NodesExplored, st.NodesExplored},
		{"RecordsVisited", got.RecordsVisited, st.RecordsVisited},
		{"PartitionRegions", got.PartitionRegions, st.PartitionRegions},
		{"Connections", got.Connections, conns},
	} {
		if f.got != f.want {
			t.Errorf("statsz %s = %d, router says %d", f.name, f.got, f.want)
		}
	}
	if st.Routes == 0 || st.PIPsCleared == 0 || st.CacheHits == 0 || st.BatchIterations == 0 || conns == 0 {
		t.Errorf("the script did not exercise the counters: %+v, %d records", st, conns)
	}
}
