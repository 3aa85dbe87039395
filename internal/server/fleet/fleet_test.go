package fleet_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/server"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
)

func pin(r, c int, w arch.Wire) server.EndPointMsg {
	return server.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
}

func newFleet(t *testing.T, cfg fleet.Config) *fleet.Coordinator {
	t.Helper()
	if cfg.Rows == 0 {
		cfg.Rows, cfg.Cols = 16, 24
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

// connect admits a session with an explicit placement key.
func connect(t *testing.T, c *fleet.Coordinator, name string, key uint64) *server.Response {
	t.Helper()
	resp := c.Submit(context.Background(), &server.Request{Op: "connect", Session: name, Key: &key})
	if resp.Err != "" {
		t.Fatalf("connect %s: %s (%s)", name, resp.Err, resp.ErrorCode)
	}
	return resp
}

// wantEpoch asserts slot's epoch. The call that sees a board die fails the
// slot over before it returns, so the epoch is checked, never waited for.
func wantEpoch(t *testing.T, c *fleet.Coordinator, slot int, want uint64) {
	t.Helper()
	if got := c.Epoch(slot); got != want {
		t.Fatalf("slot %d at epoch %d, want %d", slot, got, want)
	}
}

// TestPlacementDeterministic: placement is a pure function of (key, fleet
// size), and the default key is FNV-1a of the session name.
func TestPlacementDeterministic(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 4})
	boards := make(map[string]string)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("sess%d", i)
		resp := c.Submit(context.Background(), &server.Request{Op: "connect", Session: name})
		if resp.Err != "" {
			t.Fatalf("connect %s: %s", name, resp.Err)
		}
		boards[name] = resp.Board
		want := fmt.Sprintf("board%d", fleet.PlacementKey(name)%4)
		if resp.Board != want {
			t.Errorf("%s placed on %s, want %s", name, resp.Board, want)
		}
	}
	// Reconnecting lands on the same board.
	for name, b := range boards {
		resp := c.Submit(context.Background(), &server.Request{Op: "connect", Session: name})
		if resp.Err != "" || resp.Board != b {
			t.Errorf("%s reconnect: board %s err %q, want %s", name, resp.Board, resp.Err, b)
		}
	}
}

// TestAdmissionControl: a slot at its session cap rejects new sessions with
// the typed admission code; other slots still admit.
func TestAdmissionControl(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 2, SessionCap: 1})
	connect(t, c, "first", 0)
	resp := c.Submit(context.Background(), &server.Request{Op: "connect", Session: "second", Key: keyp(2)})
	if resp.ErrorCode != protocol.CodeAdmission {
		t.Fatalf("second session on full slot: code %q err %q, want %q",
			resp.ErrorCode, resp.Err, protocol.CodeAdmission)
	}
	// Slot 1 has room.
	connect(t, c, "third", 1)
	if got := c.Stats().AdmissionRejects; got != 1 {
		t.Errorf("admission_rejects = %d, want 1", got)
	}
	// A rejected session is not dispatchable.
	r := c.Submit(context.Background(), &server.Request{Op: "trace", Session: "second", Source: sp(pin(5, 7, arch.S1YQ))})
	if r.ErrorCode != protocol.CodeNoDevice {
		t.Errorf("op on rejected session: code %q, want %q", r.ErrorCode, protocol.CodeNoDevice)
	}
}

// TestNewRejectsUnknownArch: a misspelt architecture is New's error, not
// a fleet of Virtex boards whose workers then refuse to start.
func TestNewRejectsUnknownArch(t *testing.T) {
	if c, err := fleet.New(fleet.Config{Boards: 1, Arch: "spartan", Rows: 16, Cols: 24}); err == nil {
		_ = c.Shutdown(context.Background())
		t.Fatal("fleet.New accepted an unknown architecture")
	}
}

func keyp(k uint64) *uint64 { return &k }

func sp(m server.EndPointMsg) *server.EndPointMsg { return &m }

// TestFailoverReplaysAckedState is the core failover contract: a board dies
// under a RouteFanout, the op that saw it replays the journal onto the
// spare before it returns, and every acknowledged connection —
// point-to-point, fanout, and a core instance — survives, replayed from its
// cached path and audited clean by the oracle.
func TestFailoverReplaysAckedState(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 2, Spares: 1})
	ctx := context.Background()
	connect(t, c, "victim", 0)
	connect(t, c, "bystander", 1)

	// Acknowledged working set on slot 0: one net, one fanout, one core.
	route := func(sess string, src server.EndPointMsg, sinks ...server.EndPointMsg) *server.Response {
		return c.Submit(ctx, &server.Request{Op: "route", Session: sess, Source: &src, Sinks: sinks})
	}
	if r := route("victim", pin(5, 7, arch.S1YQ), pin(6, 8, arch.S0F3)); r.Err != "" {
		t.Fatalf("route: %s", r.Err)
	}
	if r := route("victim", pin(2, 3, arch.S0YQ), pin(4, 6, arch.S1F2), pin(1, 9, arch.S0F1), pin(6, 2, arch.S1F4)); r.Err != "" {
		t.Fatalf("fanout: %s", r.Err)
	}
	k := uint64(3)
	if r := c.Submit(ctx, &server.Request{Op: "core_new", Session: "victim",
		Core: &protocol.CoreMsg{Name: "mul", Kind: "constmul", Row: 10, Col: 14, K: &k, KBits: 2}}); r.Err != "" {
		t.Fatalf("core_new: %s", r.Err)
	}
	if r := route("bystander", pin(8, 12, arch.S1YQ), pin(9, 13, arch.S0F3)); r.Err != "" {
		t.Fatalf("bystander route: %s", r.Err)
	}

	// The board dies mid-run: its link is cut under the next fanout.
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	r := route("victim", pin(12, 4, arch.S1YQ), pin(13, 6, arch.S0F3), pin(11, 8, arch.S1F1))
	if r.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route over dead link: code %q err %q, want %q", r.ErrorCode, r.Err, protocol.CodeFailover)
	}
	wantEpoch(t, c, 0, 2)

	// The failed (unacknowledged) op retries clean on the spare.
	r = route("victim", pin(12, 4, arch.S1YQ), pin(13, 6, arch.S0F3), pin(11, 8, arch.S1F1))
	if r.Err != "" {
		t.Fatalf("retry after failover: %s (%s)", r.Err, r.ErrorCode)
	}
	if r.Board != "spare0" || r.Epoch != 2 {
		t.Errorf("retry served by %s epoch %d, want spare0 epoch 2", r.Board, r.Epoch)
	}

	// Every acknowledged connection survived onto the spare.
	for _, src := range []server.EndPointMsg{pin(5, 7, arch.S1YQ), pin(2, 3, arch.S0YQ)} {
		tr := c.Submit(ctx, &server.Request{Op: "trace", Session: "victim", Source: &src})
		if tr.Err != "" || tr.Net == nil || len(tr.Net.Sinks) == 0 {
			t.Errorf("acked connection lost after failover: trace %v -> %q, net %+v", src.Pin, tr.Err, tr.Net)
		}
	}
	// The core instance too: its output port is traceable by name.
	tr := c.Submit(ctx, &server.Request{Op: "trace", Session: "victim",
		Source: &server.EndPointMsg{Port: protocol.PortRefMsg{Core: "mul", Group: "p", Index: 0}, IsPort: true}})
	if tr.Err != "" {
		t.Errorf("core lost after failover: %s", tr.Err)
	}

	// The bystander slot never noticed.
	tr = c.Submit(ctx, &server.Request{Op: "trace", Session: "bystander", Source: sp(pin(8, 12, arch.S1YQ))})
	if tr.Err != "" || tr.Epoch != 1 {
		t.Errorf("bystander disturbed: err %q epoch %d", tr.Err, tr.Epoch)
	}

	// Health probes pass on the replacement, and the counters add up.
	c.ProbeAll(ctx)
	st := c.Stats()
	if st.Failovers != 1 || st.SparesLeft != 0 {
		t.Errorf("failovers=%d spares_left=%d, want 1/0", st.Failovers, st.SparesLeft)
	}
	if st.RestoredConns == 0 {
		t.Error("no connections counted as restored")
	}
	if st.ReplayedPaths == 0 {
		t.Error("no restores served by cached-path replay")
	}
	if st.ProbeFails != 0 {
		t.Errorf("probe_fails = %d on the replacement board", st.ProbeFails)
	}
}

// TestNoSpareLeft: a board death with no spares marks the slot down; ops
// get the typed board-down code, and other slots keep serving.
func TestNoSpareLeft(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 2})
	ctx := context.Background()
	connect(t, c, "doomed", 0)
	connect(t, c, "fine", 1)
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	src := pin(5, 7, arch.S1YQ)
	r := c.Submit(ctx, &server.Request{Op: "route", Session: "doomed", Source: &src, Sinks: []server.EndPointMsg{pin(6, 8, arch.S0F3)}})
	if r.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route on killed board: code %q, want %q", r.ErrorCode, protocol.CodeFailover)
	}
	st := c.Stats()
	if st.DownSlots != 1 || st.FailoverFails != 1 {
		t.Fatalf("down_slots=%d failover_fails=%d, want 1/1", st.DownSlots, st.FailoverFails)
	}
	r = c.Submit(ctx, &server.Request{Op: "route", Session: "doomed", Source: &src, Sinks: []server.EndPointMsg{pin(6, 8, arch.S0F3)}})
	if r.ErrorCode != protocol.CodeBoardDown {
		t.Errorf("op on down slot: code %q, want %q", r.ErrorCode, protocol.CodeBoardDown)
	}
	r2 := c.Submit(ctx, &server.Request{Op: "route", Session: "fine", Source: sp(pin(8, 12, arch.S1YQ)), Sinks: []server.EndPointMsg{pin(9, 13, arch.S0F3)}})
	if r2.Err != "" {
		t.Errorf("healthy slot affected: %s", r2.Err)
	}
}

// TestConcurrentChurnSurvivesKill hammers the fleet from concurrent
// sessions, kills a board mid-run, and verifies that every acknowledged
// route is still traceable afterwards — zero lost acked ops. Run with
// -race in CI, it also drains cleanly through Shutdown.
func TestConcurrentChurnSurvivesKill(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 2, Spares: 1})
	ctx := context.Background()

	// Sessions pinned to slots by explicit key; disjoint row bands keep
	// sessions sharing a slot (and therefore a device) out of each other's
	// way, and one net per row keeps the nets themselves conflict-free.
	sessions := []struct {
		name    string
		key     uint64
		baseRow int
	}{
		{"s0", 0, 2},
		{"s1", 1, 2},
		{"s2", 2, 8},
		{"s3", 3, 8},
	}
	for _, s := range sessions {
		connect(t, c, s.name, s.key)
	}

	type acked struct {
		sess string
		src  server.EndPointMsg
	}
	var mu sync.Mutex
	var survivors []acked

	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(name string, baseRow int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				src := pin(baseRow+i, 3+2*i, arch.S1YQ)
				sink := pin(baseRow+i, 5+2*i, arch.S0F3)
				// Retry through failover; give up only on hard errors.
				for attempt := 0; attempt < 50; attempt++ {
					r := c.Submit(ctx, &server.Request{Op: "route", Session: name,
						Source: &src, Sinks: []server.EndPointMsg{sink}})
					if r.Err == "" {
						mu.Lock()
						survivors = append(survivors, acked{name, src})
						mu.Unlock()
						break
					}
					if r.ErrorCode == protocol.CodeFailover || r.ErrorCode == protocol.CodeBusy {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					t.Errorf("%s route %d: %s (%s)", name, i, r.Err, r.ErrorCode)
					break
				}
				if name == "s0" && i == 2 {
					_ = c.KillBoard(0) // board dies mid-churn
				}
			}
		}(s.name, s.baseRow)
	}
	wg.Wait()

	wantEpoch(t, c, 0, 2)
	for _, a := range survivors {
		tr := c.Submit(ctx, &server.Request{Op: "trace", Session: a.sess, Source: &a.src})
		if tr.Err != "" || tr.Net == nil || len(tr.Net.Sinks) == 0 {
			t.Errorf("acked route lost: %s %v (err %q)", a.sess, a.src.Pin, tr.Err)
		}
	}
	st := c.Stats()
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	t.Logf("%d acked routes, all survived the kill (failovers=%d restored=%d replayed=%d)",
		len(survivors), st.Failovers, st.RestoredConns, st.ReplayedPaths)
}

// TestProbeDetectsSilentDeath: a board that dies without any op traffic is
// caught by the health probe and failed over.
func TestProbeDetectsSilentDeath(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 1, Spares: 1})
	ctx := context.Background()
	connect(t, c, "only", 0)
	src := pin(5, 7, arch.S1YQ)
	if r := c.Submit(ctx, &server.Request{Op: "route", Session: "only", Source: &src,
		Sinks: []server.EndPointMsg{pin(6, 8, arch.S0F3)}}); r.Err != "" {
		t.Fatal(r.Err)
	}
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	c.ProbeAll(ctx) // no client traffic — only the probe can notice
	wantEpoch(t, c, 0, 2)
	st := c.Stats()
	if st.ProbeFails == 0 || st.Failovers != 1 {
		t.Fatalf("probe_fails=%d failovers=%d, want >0/1", st.ProbeFails, st.Failovers)
	}
	tr := c.Submit(ctx, &server.Request{Op: "trace", Session: "only", Source: &src})
	if tr.Err != "" || len(tr.Net.Sinks) != 1 {
		t.Errorf("acked route lost across probe-driven failover: %q %+v", tr.Err, tr.Net)
	}
}

// TestBackgroundProbeFailsOver: with background probing on and no client
// traffic, a killed board is failed over by a probe tick.
func TestBackgroundProbeFailsOver(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 1, Spares: 1, ProbeInterval: 20 * time.Millisecond})
	connect(t, c, "only", 0)
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Epoch(0) != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("slot 0 still at epoch %d 10 s after its board died", c.Epoch(0))
		}
	}
	if st := c.Stats(); st.ProbeFails == 0 || st.Failovers != 1 {
		t.Errorf("probe_fails=%d failovers=%d, want >0/1", st.ProbeFails, st.Failovers)
	}
}

// TestFailoverAfterKindlessReplace: clients send core_replace as name,
// site and (optionally) K — no Kind. The journal must fold such a replace
// into the core's held description rather than store it whole, or the
// failover's core_new replay meets "unknown core kind", burns the spare and
// takes the slot down.
func TestFailoverAfterKindlessReplace(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 1, Spares: 1})
	ctx := context.Background()
	connect(t, c, "only", 0)
	submit := func(req *server.Request) *server.Response {
		req.Session = "only"
		return c.Submit(ctx, req)
	}
	q := server.EndPointMsg{Port: protocol.PortRefMsg{Core: "reg", Group: "q", Index: 0}, IsPort: true}
	for _, req := range []*server.Request{
		{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}},
		{Op: "route", Source: &q, Sinks: []server.EndPointMsg{pin(6, 20, arch.S0F3)}},
		{Op: "core_replace", Core: &protocol.CoreMsg{Name: "reg", Row: 9, Col: 16}},
	} {
		if r := submit(req); r.Err != "" {
			t.Fatalf("%s: %s (%s)", req.Op, r.Err, r.ErrorCode)
		}
	}
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	c.ProbeAll(ctx)
	if st := c.Stats(); st.Failovers != 1 || st.FailoverFails != 0 {
		t.Fatalf("failovers/fails = %d/%d, want 1/0", st.Failovers, st.FailoverFails)
	}
	tr := submit(&server.Request{Op: "trace", Source: &q})
	if tr.Err != "" || tr.Net == nil || len(tr.Net.Sinks) != 1 {
		t.Fatalf("the register's net after failover: %q (%s) %+v", tr.Err, tr.ErrorCode, tr.Net)
	}
	// The spare holds the register where the replace put it: replacing it
	// there again is a move of zero.
	if r := submit(&server.Request{Op: "core_replace", Core: &protocol.CoreMsg{Name: "reg", Row: 9, Col: 16}}); r.Err != "" {
		t.Errorf("core_replace on the spare: %s (%s)", r.Err, r.ErrorCode)
	}
}

// TestFailoverReplaysCoreWiring: a board hosting a rack of counter cores
// (internal feedback wiring = real routing on restore) is killed; the
// spare's fresh router re-implements every journaled core along the paths
// the journal holds (the import teaches its route cache every record's path
// first, so no feedback net is searched anew), the replay's own readback
// byte-compare and oracle audit pass (or the slot would not have swapped),
// and every acked net still traces.
func TestFailoverReplaysCoreWiring(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 2, Spares: 1})
	ctx := context.Background()
	connect(t, c, "victim", 0)

	const counters, bits = 6, 4
	for i := 0; i < counters; i++ {
		msg := protocol.CoreMsg{Name: fmt.Sprintf("ctr%d", i), Kind: "counter",
			Row: 2 + 4*(i%3), Col: 3 + 5*(i/3), Bits: bits}
		if r := c.Submit(ctx, &server.Request{Op: "core_new", Session: "victim", Core: &msg}); r.Err != "" {
			t.Fatalf("core %d: %s", i, r.Err)
		}
	}
	route := func() *server.Response {
		src := pin(13, 3, arch.S1YQ)
		return c.Submit(ctx, &server.Request{Op: "route", Session: "victim", Source: &src,
			Sinks: []server.EndPointMsg{pin(14, 5, arch.S0F3)}})
	}
	// sinks counts the sinks on every counter's feedback nets: the acked
	// state that must come back on the spare.
	sinks := func() int {
		n := 0
		for i := 0; i < counters; i++ {
			for bit := 0; bit < bits; bit++ {
				tr := c.Submit(ctx, &server.Request{Op: "trace", Session: "victim",
					Source: &server.EndPointMsg{Port: protocol.PortRefMsg{Core: fmt.Sprintf("ctr%d", i), Group: "q", Index: bit}, IsPort: true}})
				if tr.Err != "" || tr.Net == nil {
					t.Fatalf("trace ctr%d.q[%d]: %q", i, bit, tr.Err)
				}
				n += len(tr.Net.Sinks)
			}
		}
		return n
	}
	want := sinks()
	if want < counters*bits {
		t.Fatalf("only %d feedback sinks routed, want >= %d", want, counters*bits)
	}

	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	if r := route(); r.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route on killed board: code %q err %q, want %q", r.ErrorCode, r.Err, protocol.CodeFailover)
	}
	wantEpoch(t, c, 0, 2)
	if r := route(); r.Err != "" || r.Board != "spare0" {
		t.Fatalf("retry after failover: board %s err %q (%s)", r.Board, r.Err, r.ErrorCode)
	}
	if got := sinks(); got != want {
		t.Errorf("%d feedback sinks trace on the spare, %d were acked", got, want)
	}

	c.ProbeAll(ctx) // board readback == worker bitstream, oracle-clean
	st := c.Stats()
	if st.Failovers != 1 || st.FailoverFails != 0 || st.ProbeFails != 0 {
		t.Errorf("failovers/fails/probe_fails = %d/%d/%d, want 1/0/0", st.Failovers, st.FailoverFails, st.ProbeFails)
	}
	spare := st.Slots["slot0"]
	if spare.Board != "spare0" {
		t.Fatalf("slot0 served by %s, want spare0", spare.Board)
	}
	if st.ReplayedPaths < counters*bits {
		t.Errorf("%d routes of the restore were replays, want every feedback net's %d", st.ReplayedPaths, counters*bits)
	}
}

// TestFailoverAuditsEveryNet: the spare's post-failover audit demands
// strict coverage — every net on the readback is a replayed record. A
// session holding a clocked register (and a net off its output) is killed;
// the failover passes that audit, and the spare's clock net reaches the
// register's clock pins.
func TestFailoverAuditsEveryNet(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 1, Spares: 1})
	ctx := context.Background()
	connect(t, c, "only", 0)
	submit := func(req *server.Request) *server.Response {
		req.Session = "only"
		return c.Submit(ctx, req)
	}
	q := server.EndPointMsg{Port: protocol.PortRefMsg{Core: "reg", Group: "q", Index: 0}, IsPort: true}
	for _, req := range []*server.Request{
		{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}},
		{Op: "route", Source: &q, Sinks: []server.EndPointMsg{pin(6, 20, arch.S0F3)}},
	} {
		if r := submit(req); r.Err != "" {
			t.Fatalf("%s: %s (%s)", req.Op, r.Err, r.ErrorCode)
		}
	}
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	c.ProbeAll(ctx)
	if st := c.Stats(); st.Failovers != 1 || st.FailoverFails != 0 {
		t.Fatalf("failovers/fails = %d/%d, want 1/0", st.Failovers, st.FailoverFails)
	}
	tr := submit(&server.Request{Op: "trace", Source: sp(pin(0, 0, arch.GClk(0)))})
	if tr.Err != "" || tr.Net == nil || len(tr.Net.Sinks) != 2 || tr.Epoch != 2 {
		t.Fatalf("the clock net on the spare: %q (%s) epoch %d %+v", tr.Err, tr.ErrorCode, tr.Epoch, tr.Net)
	}
}

// TestFailoverKeepsPortMemory: a sink reverse-unrouted off a port net is
// remembered under the port (§3.3), and a failover carries port memory to
// the spare with everything else, so a core_replace after it routes the
// sink back, as it would have on the dead board.
func TestFailoverKeepsPortMemory(t *testing.T) {
	c := newFleet(t, fleet.Config{Boards: 1, Spares: 1})
	ctx := context.Background()
	connect(t, c, "only", 0)
	submit := func(req *server.Request) *server.Response {
		req.Session = "only"
		return c.Submit(ctx, req)
	}
	q := server.EndPointMsg{Port: protocol.PortRefMsg{Core: "reg", Group: "q", Index: 0}, IsPort: true}
	gone := pin(9, 13, arch.S0F3)
	for _, req := range []*server.Request{
		{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}},
		{Op: "route", Source: &q, Sinks: []server.EndPointMsg{pin(6, 20, arch.S0F3), gone}},
		{Op: "reverse_unroute", Source: &gone},
	} {
		if r := submit(req); r.Err != "" {
			t.Fatalf("%s: %s (%s)", req.Op, r.Err, r.ErrorCode)
		}
	}
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	if r := submit(&server.Request{Op: "route", Source: sp(pin(13, 3, arch.S1YQ)), Sinks: []server.EndPointMsg{pin(14, 5, arch.S0F3)}}); r.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route on the killed board: %q (%s)", r.Err, r.ErrorCode)
	}
	wantEpoch(t, c, 0, 2)
	if r := submit(&server.Request{Op: "core_replace", Core: &protocol.CoreMsg{Name: "reg", Row: 8, Col: 16}}); r.Err != "" {
		t.Fatalf("core_replace on the spare: %s (%s)", r.Err, r.ErrorCode)
	}
	tr := submit(&server.Request{Op: "trace", Source: &q})
	if tr.Err != "" || tr.Net == nil || len(tr.Net.Sinks) != 2 || tr.Epoch != 2 {
		t.Fatalf("reg.q on the spare after the replace: %q epoch %d %+v, want both sinks back", tr.Err, tr.Epoch, tr.Net)
	}
}
