package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/protocol"
)

// TestQuarantinedSlotFailsOver: an op that panics quarantines its slot's
// worker. With probes off, nothing else would notice, so the next op on the
// slot fails it over before it answers the retryable code: its retry, and
// the slotmate's trace, run on the spare against the journal's last acked
// state.
func TestQuarantinedSlotFailsOver(t *testing.T) {
	c, err := New(Config{Boards: 1, Spares: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() { _ = c.Shutdown(ctx) }()
	pin := func(r, c int, w arch.Wire) server.EndPointMsg {
		return server.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
	}
	route := func(session string, src, sink server.EndPointMsg) *server.Response {
		return c.Submit(ctx, &server.Request{Op: "route", Session: session, Source: &src, Sinks: []server.EndPointMsg{sink}})
	}
	trace := func(session string, src server.EndPointMsg) *server.Response {
		return c.Submit(ctx, &server.Request{Op: "trace", Session: session, Source: &src})
	}
	key := uint64(0)
	nets := map[string][2]server.EndPointMsg{
		"a": {pin(5, 7, arch.S1YQ), pin(6, 8, arch.S0F3)},
		"b": {pin(8, 12, arch.S1YQ), pin(9, 13, arch.S0F3)},
	}
	for session, n := range nets {
		if r := c.Submit(ctx, &server.Request{Op: "connect", Session: session, Key: &key}); r.Err != "" {
			t.Fatalf("connect %s: %s", session, r.Err)
		}
		if r := route(session, n[0], n[1]); r.Err != "" {
			t.Fatalf("route %s: %s (%s)", session, r.Err, r.ErrorCode)
		}
	}

	err = c.slots[0].worker.Do(ctx, func(*core.Router, *jbits.Session) error { panic("injected") })
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("the panicking task answered %v, want the quarantine", err)
	}
	src, sink := pin(12, 4, arch.S1YQ), pin(13, 6, arch.S0F3)
	if r := route("a", src, sink); r.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route on the quarantined slot: code %q err %q, want %q", r.ErrorCode, r.Err, protocol.CodeFailover)
	}
	if got := c.Epoch(0); got != 2 {
		t.Fatalf("slot 0 at epoch %d when the op that saw the quarantine returned, want 2", got)
	}
	if r := route("a", src, sink); r.Err != "" || r.Board != "spare0" || r.Epoch != 2 {
		t.Fatalf("retry: board %s epoch %d err %q (%s), want spare0 epoch 2", r.Board, r.Epoch, r.Err, r.ErrorCode)
	}
	for session, n := range nets {
		tr := trace(session, n[0])
		if tr.Err != "" || tr.Board != "spare0" || tr.Net == nil || len(tr.Net.Sinks) != 1 {
			t.Errorf("%s's net on the spare: board %s err %q net %+v", session, tr.Board, tr.Err, tr.Net)
		}
	}
	if st := c.Stats(); st.Failovers != 1 || st.FailoverFails != 0 {
		t.Errorf("failovers/fails = %d/%d, want 1/0", st.Failovers, st.FailoverFails)
	}
}
