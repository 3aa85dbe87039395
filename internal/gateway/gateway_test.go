package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/gateway"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
)

func pin(r, c int, w arch.Wire) server.EndPointMsg {
	return server.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
}

// startBackend boots one in-process jrouted fleet and returns its address.
func startBackend(t *testing.T, boards int) string {
	t.Helper()
	addr, _ := startBackendSized(t, boards, 16, 24)
	return addr
}

// startBackendSized is startBackend at a chosen board geometry; it also
// returns the coordinator, for probing the boards directly.
func startBackendSized(t testing.TB, boards, rows, cols int) (string, *fleet.Coordinator) {
	t.Helper()
	coord, err := fleet.New(fleet.Config{Boards: boards, Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer()
	srv.SetFleet(coord)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr, coord
}

// startGateway boots a gateway daemon over the config and returns its
// address plus the coordinator (for direct drain/probe calls).
func startGateway(t testing.TB, cfg gateway.Config) (string, *gateway.Gateway) {
	t.Helper()
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(server.WithAuth(g.Authenticate))
	srv.SetFleet(g)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr, g
}

func backendOf(t *testing.T, s *client.Session) string {
	t.Helper()
	i := strings.IndexByte(s.Board, '/')
	if i < 0 {
		t.Fatalf("board %q has no backend prefix", s.Board)
	}
	return s.Board[:i]
}

// TestPassthroughFramings proves the gateway edge terminates the client
// protocol unmodified. It speaks the one framing the daemons speak: the
// XHWIF-framed JSON hello a v2 client sent gets the constant typed version
// refusal before any backend is touched, and a default client's session
// passes through to its backend with a mirror that audits clean and matches
// the board it reads back.
func TestPassthroughFramings(t *testing.T) {
	be0 := startBackend(t, 2)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("v2-json", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := []byte(`{"id":1,"op":"hello","hello":{"version":2}}`)
		if err := jbits.WriteFrame(conn, 0x10, hello); err != nil {
			t.Fatal(err)
		}
		op, body, err := jbits.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		var resp struct {
			Code string `json:"code"`
			Err  string `json:"err"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || op != 0x10|jbits.RespFlag {
			t.Fatalf("refusal: op %#x, %v", op, err)
		}
		if resp.Code != protocol.CodeVersion.String() {
			t.Fatalf("JSON-only hello: code %q (err %q), want %q", resp.Code, resp.Err, protocol.CodeVersion)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("read after the refusal = %v, want EOF", err)
		}
		if ops := g.GatewayStats().BackendsMap["be0"].Ops; ops != 0 {
			t.Errorf("refused hello reached the backend: %d ops forwarded", ops)
		}
	})

	t.Run("v3-binary", func(t *testing.T) {
		c, err := client.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.SessionWithKey(ctx, "v1000-class/v3", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := backendOf(t, s); got != "be0" {
			t.Errorf("session on %s, want be0", got)
		}
		if err := s.Route(ctx, pin(5, 7, arch.S1YQ), pin(6, 8, arch.S0F3)); err != nil {
			t.Fatalf("route: %v", err)
		}
		if err := s.Route(ctx, pin(8, 12, arch.S1YQ), pin(9, 13, arch.S0F3)); err != nil {
			t.Fatalf("route: %v", err)
		}
		if err := s.VerifyMirror(); err != nil {
			t.Fatalf("mirror fails oracle audit: %v", err)
		}
		stream, err := s.Readback(ctx)
		if err != nil {
			t.Fatalf("readback: %v", err)
		}
		mine, err := s.Mirror.FullConfig()
		if err != nil {
			t.Fatal(err)
		}
		diffs, err := oracle.DiffStreams(arch.NewVirtex(), mine, stream)
		if err != nil {
			t.Fatalf("DiffStreams: %v", err)
		}
		if len(diffs) != 0 {
			t.Errorf("mirror and board diverge through the gateway: %d PIP diffs (first: %+v)", len(diffs), diffs[0])
		}
	})
}

// TestAuthAndQuotaErrors covers the typed gateway rejections end to end:
// unauthorized hellos, unknown aliases, session caps, ops/s buckets,
// cross-tenant session access, and the gw_drain admin gate.
func TestAuthAndQuotaErrors(t *testing.T) {
	be0 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
		},
		Tenants: []gateway.TenantConfig{
			{Name: "alice", Token: "tok-alice", SessionCap: 1},
			{Name: "bob", Token: "tok-bob"},
			{Name: "carol", Token: "tok-carol", OpsPerSec: 1, Burst: 1},
			{Name: "dave", Token: "tok-dave", OpsPerSec: 0.001, Burst: 1},
			{Name: "root", Token: "tok-root", Admin: true},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("unauthorized token", func(t *testing.T) {
		for _, tok := range []string{"", "tok-wrong"} {
			var opts []client.Option
			if tok != "" {
				opts = append(opts, client.WithToken(tok))
			}
			_, err := client.Dial(ctx, addr, opts...)
			if !errors.Is(err, client.ErrUnauthorized) {
				t.Errorf("dial with token %q: err = %v, want ErrUnauthorized", tok, err)
			}
		}
	})

	alice, err := client.Dial(ctx, addr, client.WithToken("tok-alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	t.Run("unknown alias", func(t *testing.T) {
		_, err := alice.Session(ctx, "z9000-class/x")
		if !errors.Is(err, client.ErrUnknownAlias) {
			t.Errorf("err = %v, want ErrUnknownAlias", err)
		}
	})

	t.Run("session cap", func(t *testing.T) {
		if _, err := alice.Session(ctx, "v1000-class/a0"); err != nil {
			t.Fatalf("first session: %v", err)
		}
		_, err := alice.Session(ctx, "v1000-class/a1")
		if !errors.Is(err, client.ErrQuotaExceeded) {
			t.Errorf("err = %v, want ErrQuotaExceeded at the session cap", err)
		}
	})

	t.Run("cross-tenant session", func(t *testing.T) {
		bob, err := client.Dial(ctx, addr, client.WithToken("tok-bob"))
		if err != nil {
			t.Fatal(err)
		}
		defer bob.Close()
		_, err = bob.Session(ctx, "v1000-class/a0") // alice's session
		if !errors.Is(err, client.ErrUnauthorized) {
			t.Errorf("err = %v, want ErrUnauthorized for another tenant's session", err)
		}
	})

	t.Run("ops quota", func(t *testing.T) {
		carol, err := client.Dial(ctx, addr, client.WithToken("tok-carol"))
		if err != nil {
			t.Fatal(err)
		}
		defer carol.Close()
		s, err := carol.Session(ctx, "v1000-class/c0")
		if err != nil {
			t.Fatal(err)
		}
		// Burst 1 at 1 op/s: the first op drains the bucket, an immediate
		// second op must bounce.
		if err := s.Route(ctx, pin(11, 7, arch.S1YQ), pin(12, 8, arch.S0F3)); err != nil {
			t.Fatalf("first op: %v", err)
		}
		err = s.Route(ctx, pin(13, 7, arch.S1YQ), pin(14, 8, arch.S0F3))
		if !errors.Is(err, client.ErrQuotaExceeded) {
			t.Errorf("err = %v, want ErrQuotaExceeded from the token bucket", err)
		}
	})

	t.Run("re-dial outside ops quota", func(t *testing.T) {
		// A client re-dialing its open session is not spending an op: with
		// the bucket empty the connect still goes through, uncounted.
		var sess [2]*client.Session
		for i := range sess {
			c, err := client.Dial(ctx, addr, client.WithToken("tok-dave"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if sess[i], err = c.Session(ctx, "v1000-class/d0"); err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
			if i == 0 {
				if err := sess[0].Route(ctx, pin(3, 7, arch.S1YQ), pin(4, 8, arch.S0F3)); err != nil {
					t.Fatalf("the op that empties the bucket: %v", err)
				}
			}
		}
		if err := sess[1].Route(ctx, pin(3, 13, arch.S1YQ), pin(4, 14, arch.S0F3)); !errors.Is(err, client.ErrQuotaExceeded) {
			t.Errorf("op after the re-dial: err = %v, want ErrQuotaExceeded", err)
		}
		if got := g.GatewayStats().Tenants["dave"]; got.AdmittedOps != 1 || got.RejectedOps != 1 {
			t.Errorf("admitted/rejected ops = %d/%d, want 1/1", got.AdmittedOps, got.RejectedOps)
		}
	})

	t.Run("gw_drain admin gate", func(t *testing.T) {
		resp, err := alice.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ErrorCode != protocol.CodeUnauthorized {
			t.Errorf("non-admin gw_drain: code %q, want %q", resp.ErrorCode, protocol.CodeUnauthorized)
		}
		root, err := client.Dial(ctx, addr, client.WithToken("tok-root"))
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		resp, err = root.Forward(ctx, &server.Request{Op: "gw_drain", Session: "nosuch"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ErrorCode != protocol.CodeBadRequest {
			t.Errorf("drain of unknown backend: code %q, want %q", resp.ErrorCode, protocol.CodeBadRequest)
		}
	})
}

// TestDrainJournalHandoff proves the drain contract: every session pinned
// to the drained backend moves by state handoff, no acked op is lost, the
// client-visible epoch bump resyncs mirrors, and new sessions avoid the
// draining backend. The drain is issued over the wire as the gw_drain
// admin verb.
func TestDrainJournalHandoff(t *testing.T) {
	be0 := startBackend(t, 1)
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// s0 pins to be0 (key 0 of the 2-backend pool), s1 to be1 (key 1); the
	// nets live in disjoint row bands so the sessions can share a board
	// after the drain moves s0 onto be1.
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s0); got != "be0" {
		t.Fatalf("s0 on %s, want be0", got)
	}
	s1, err := c.SessionWithKey(ctx, "v1000-class/s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s1); got != "be1" {
		t.Fatalf("s1 on %s, want be1", got)
	}

	// Acked working set on s0: keep net A, cancel net B (the state holds
	// live nets only, so B does not move), keep net C.
	netA := pin(5, 7, arch.S1YQ)
	netB := pin(8, 12, arch.S1YQ)
	netC := pin(11, 3, arch.S1YQ)
	if err := s0.Route(ctx, netA, pin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := s0.Route(ctx, netB, pin(9, 13, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := s0.Unroute(ctx, netB); err != nil {
		t.Fatal(err)
	}
	if err := s0.Route(ctx, netC, pin(12, 4, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Route(ctx, pin(13, 16, arch.S1YQ), pin(14, 17, arch.S0F3)); err != nil {
		t.Fatal(err)
	}

	admin, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	resp, err := admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
	if err != nil {
		t.Fatalf("gw_drain: %v", err)
	}
	if resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("gw_drain: %s (%s)", resp.Err, resp.ErrorCode)
	}
	if len(resp.Devices) != 1 || resp.Devices[0] != "v1000-class/s0" {
		t.Fatalf("moved sessions = %v, want [v1000-class/s0]", resp.Devices)
	}

	// The next op rides the bumped epoch: the client resyncs its mirror
	// from the new backend and every acked net is still there.
	net, err := s0.Trace(ctx, netA)
	if err != nil {
		t.Fatalf("trace after drain: %v", err)
	}
	if net == nil || len(net.Sinks) != 1 {
		t.Fatalf("net A lost in handoff: %+v", net)
	}
	if s0.Resyncs != 1 {
		t.Errorf("s0 resyncs = %d, want 1 (epoch bump at handoff)", s0.Resyncs)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s after drain, want be1", got)
	}
	if net, err := s0.Trace(ctx, netC); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net C lost in handoff: %+v, %v", net, err)
	}
	if err := s0.VerifyMirror(); err != nil {
		t.Errorf("post-drain mirror fails oracle audit: %v", err)
	}
	// s1 was never touched.
	if s1.Resyncs != 0 {
		t.Errorf("bystander s1 resynced %d times, want 0", s1.Resyncs)
	}

	// New placements skip the draining backend even for keys that would
	// have picked it.
	s2, err := c.SessionWithKey(ctx, "v1000-class/s2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s2); got != "be1" {
		t.Errorf("post-drain session on %s, want be1", got)
	}

	gs := g.GatewayStats()
	if gs.Drains != 1 || gs.Handoffs != 1 || gs.HandoffFails != 0 {
		t.Errorf("drains/handoffs/fails = %d/%d/%d, want 1/1/0",
			gs.Drains, gs.Handoffs, gs.HandoffFails)
	}
	// The state holds live nets only: net B was unrouted, so exactly nets A
	// and C moved.
	if gs.RestoredNets != 2 {
		t.Errorf("restored nets = %d, want 2 (net B is not live)", gs.RestoredNets)
	}
	if gs.DrainingBackends != 1 || gs.HealthyBackends != 1 {
		t.Errorf("draining/healthy = %d/%d, want 1/1", gs.DrainingBackends, gs.HealthyBackends)
	}

	// The edge section rides ordinary statsz through the gateway.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gateway == nil || stats.Gateway.Backends != 2 {
		t.Errorf("statsz gateway section = %+v, want 2 backends", stats.Gateway)
	}
}

// TestEjectionRelocatesSessions proves health-based ejection: when a
// backend dies, a probe round ejects it and relocates its sessions onto
// healthy fleets from the gateway-side session state — the dead backend is never
// consulted.
func TestEjectionRelocatesSessions(t *testing.T) {
	// be0 gets its own shutdown handle instead of the t.Cleanup helper.
	coord0, err := fleet.New(fleet.Config{Boards: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := server.NewServer()
	srv0.SetFleet(coord0)
	be0, err := srv0.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s0); got != "be0" {
		t.Fatalf("s0 on %s, want be0", got)
	}
	if err := s0.Route(ctx, pin(5, 7, arch.S1YQ), pin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := srv0.Shutdown(sctx); err != nil {
		t.Fatalf("shutting down be0: %v", err)
	}
	g.ProbeAll(ctx)

	net, err := s0.Trace(ctx, pin(5, 7, arch.S1YQ))
	if err != nil {
		t.Fatalf("trace after ejection: %v", err)
	}
	if net == nil || len(net.Sinks) != 1 {
		t.Fatalf("net lost in ejection handoff: %+v", net)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s after ejection, want be1", got)
	}
	if s0.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", s0.Resyncs)
	}
	gs := g.GatewayStats()
	if gs.Ejections != 1 || gs.Handoffs != 1 {
		t.Errorf("ejections/handoffs = %d/%d, want 1/1", gs.Ejections, gs.Handoffs)
	}
	if be := gs.BackendsMap["be0"]; be.Healthy {
		t.Error("be0 still marked healthy after failed probe")
	}
}

// TestDrainSkipsDivergentUnroute proves the handoff tolerates the session
// state running behind the backend. Under load an op can time out at the
// edge yet still apply on the fleet; the lost ack means the state never took
// in the net, so the client's later acked unroute of it names a source the
// state does not hold. That changes nothing — the net is absent from the
// state, as the acked unroute promised — and the drain finishes.
func TestDrainSkipsDivergentUnroute(t *testing.T) {
	be0 := startBackend(t, 1)
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s0); got != "be0" {
		t.Fatalf("s0 on %s, want be0", got)
	}
	netA := pin(5, 7, arch.S1YQ)
	if err := s0.Route(ctx, netA, pin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}

	// Simulate the lost ack: apply a route for s0 directly on be0, behind
	// the gateway's back, exactly as a timed-out-but-applied op would.
	direct, err := client.Dial(ctx, be0)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	netX := pin(8, 12, arch.S1YQ)
	resp, err := direct.Forward(ctx, &server.Request{
		Op: "route", Session: "v1000-class/s0",
		Source: &netX, Sinks: []server.EndPointMsg{pin(9, 13, arch.S0F3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("out-of-band route: %s (%s)", resp.Err, resp.ErrorCode)
	}

	// The client's unroute acks (the net exists on be0) and is journaled
	// with no matching route entry.
	resp, err = c.Forward(ctx, &server.Request{
		Op: "unroute", Session: "v1000-class/s0", Source: &netX,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("unroute through gateway: %s (%s)", resp.Err, resp.ErrorCode)
	}

	admin, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	resp, err = admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
	if err != nil {
		t.Fatalf("gw_drain: %v", err)
	}
	if resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("gw_drain must survive the divergent unroute: %s (%s)", resp.Err, resp.ErrorCode)
	}

	gs := g.GatewayStats()
	if gs.Handoffs != 1 || gs.HandoffFails != 0 {
		t.Errorf("handoffs/fails = %d/%d, want 1/0", gs.Handoffs, gs.HandoffFails)
	}

	// Every acked net survived; X is absent on the target, which is what
	// the acked unroute promised the client.
	if net, err := s0.Trace(ctx, netA); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net A lost in handoff: %+v, %v", net, err)
	}
	if net, err := s0.Trace(ctx, netX); err == nil && net != nil && len(net.Sinks) > 0 {
		t.Errorf("net X resurrected on target: %+v", net)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s after drain, want be1", got)
	}
}

// TestFailedHandoffRollsBackTarget proves a failed drain leaves no debris:
// when the move fails (here a sink collision with a co-tenant net on the
// target board), the one batch carrying every net routes none of them, the
// session stays pinned to its old backend with all acked state intact, and
// a retry after the conflict clears succeeds instead of colliding with the
// previous attempt's orphans.
func TestFailedHandoffRollsBackTarget(t *testing.T) {
	be0 := startBackend(t, 1)
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s0); got != "be0" {
		t.Fatalf("s0 on %s, want be0", got)
	}
	netA := pin(5, 7, arch.S1YQ)
	netB := pin(8, 12, arch.S1YQ)
	sharedSink := pin(9, 10, arch.S0F3)
	if err := s0.Route(ctx, netA, pin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := s0.Route(ctx, netB, sharedSink); err != nil {
		t.Fatal(err)
	}

	// A co-tenant on be1's board drives the sink net B needs, so replaying
	// s0 there fails at net B — after net A has already applied.
	direct, err := client.Dial(ctx, be1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	bl, err := direct.Session(ctx, "blocker")
	if err != nil {
		t.Fatal(err)
	}
	blockSrc := pin(11, 3, arch.S1YQ)
	if err := bl.Route(ctx, blockSrc, sharedSink); err != nil {
		t.Fatal(err)
	}

	admin, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	resp, err := admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
	if err == nil && resp.ErrorCode == protocol.CodeOK {
		t.Fatal("gw_drain succeeded despite the sink collision on the target")
	}
	gs := g.GatewayStats()
	if gs.Handoffs != 0 || gs.HandoffFails != 1 {
		t.Errorf("handoffs/fails = %d/%d, want 0/1", gs.Handoffs, gs.HandoffFails)
	}

	// No debris: net A must not linger on be1 from the aborted replay.
	tr, err := direct.Forward(ctx, &server.Request{
		Op: "trace", Session: "v1000-class/s0", Source: &netA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ErrorCode == protocol.CodeOK && tr.Net != nil && len(tr.Net.Sinks) > 0 {
		t.Errorf("net A left on target after aborted replay: %+v", tr.Net)
	}
	// The session kept serving from be0 with all acked state.
	if net, err := s0.Trace(ctx, netA); err != nil || net == nil {
		t.Fatalf("net A lost on source after failed drain: %+v, %v", net, err)
	}

	// Clear the conflict; the retry must now go through cleanly.
	if err := bl.Unroute(ctx, blockSrc); err != nil {
		t.Fatal(err)
	}
	resp, err = admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
	if err != nil {
		t.Fatalf("gw_drain retry: %v", err)
	}
	if resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("gw_drain retry: %s (%s)", resp.Err, resp.ErrorCode)
	}
	if len(resp.Devices) != 1 || resp.Devices[0] != "v1000-class/s0" {
		t.Fatalf("moved sessions = %v, want [v1000-class/s0]", resp.Devices)
	}
	if net, err := s0.Trace(ctx, netA); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net A lost in retried handoff: %+v, %v", net, err)
	}
	if net, err := s0.Trace(ctx, netB); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net B lost in retried handoff: %+v, %v", net, err)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s after retried drain, want be1", got)
	}
}

// TestFailedHandoffRetriesPlacedCore is TestFailedHandoffRollsBackTarget's
// scenario with a register added: the failed move places the register on
// the target before its nets fail, and session_import, all or nothing,
// takes it off again with every net it adopted. So the target holds none of
// the session after each failed attempt, and the retry — made after the
// session has moved the register — places it fresh where the session has
// it now.
func TestFailedHandoffRetriesPlacedCore(t *testing.T) {
	be0 := startBackend(t, 1)
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	netA := pin(5, 7, arch.S1YQ)
	netB := pin(8, 12, arch.S1YQ)
	sharedSink := pin(9, 10, arch.S0F3)
	reg := client.PortRef("reg", "q", 0)
	if err := s0.NewCore(ctx, protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}); err != nil {
		t.Fatal(err)
	}
	for _, n := range [][2]server.EndPointMsg{{netA, pin(6, 8, arch.S0F3)}, {netB, sharedSink}, {reg, pin(6, 20, arch.S0F3)}} {
		if err := s0.Route(ctx, n[0], n[1]); err != nil {
			t.Fatal(err)
		}
	}

	direct, err := client.Dial(ctx, be1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	bl, err := direct.Session(ctx, "blocker")
	if err != nil {
		t.Fatal(err)
	}
	blockSrc := pin(11, 3, arch.S1YQ)
	if err := bl.Route(ctx, blockSrc, sharedSink); err != nil {
		t.Fatal(err)
	}
	admin, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	drain := func() *server.Response {
		resp, err := admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Both attempts fail on the blocked sink, and each leaves nothing of the
	// session on the target: no register, no net.
	for i := 0; i < 2; i++ {
		if resp := drain(); resp.ErrorCode == protocol.CodeOK || !strings.Contains(resp.Err, "failed at session_import") {
			t.Fatalf("gw_drain attempt %d: %q (%s), want a failure at the import", i, resp.Err, resp.ErrorCode)
		}
		if tr, err := direct.Forward(ctx, &server.Request{Op: "trace", Session: "v1000-class/s0", Source: &reg}); err != nil || tr.ErrorCode != protocol.CodeBadRequest {
			t.Fatalf("attempt %d left the register on the target: %+v, %v", i, tr, err)
		}
		if tr, err := direct.Forward(ctx, &server.Request{Op: "trace", Session: "v1000-class/s0", Source: &netA}); err != nil || (tr.Net != nil && len(tr.Net.Sinks) > 0) {
			t.Fatalf("attempt %d left net A on the target: %+v, %v", i, tr, err)
		}
	}
	// The session moves the register meanwhile.
	if err := s0.ReplaceCore(ctx, protocol.CoreMsg{Name: "reg", Row: 8, Col: 16}); err != nil {
		t.Fatal(err)
	}
	if err := bl.Unroute(ctx, blockSrc); err != nil {
		t.Fatal(err)
	}
	if resp := drain(); resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("gw_drain retry: %s (%s)", resp.Err, resp.ErrorCode)
	}
	for _, src := range []server.EndPointMsg{netA, netB, reg} {
		if net, err := s0.Trace(ctx, src); err != nil || net == nil || len(net.Sinks) != 1 {
			t.Errorf("net lost in retried handoff: %+v, %v", net, err)
		}
	}
	if net, err := s0.Trace(ctx, reg); err != nil || net.Source.Pin.Row != 8 {
		t.Errorf("reg.q traces from %+v (%v), want row 8 where the replace put it", net.Source.Pin, err)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s after retried drain, want be1", got)
	}
	if gs := g.GatewayStats(); gs.Handoffs != 1 || gs.HandoffFails != 2 {
		t.Errorf("handoffs/fails = %d/%d, want 1/2", gs.Handoffs, gs.HandoffFails)
	}
}

// TestMoveKeepsPortMemory: a net taken off a core's port by unroute or
// reverse_unroute is remembered by the router, and a core_replace of that
// core routes it again (§3.3). A move must keep that whether the replace
// runs before it — the net is live again and moves with the rest — or after
// it, on a target that must remember the net too.
func TestMoveKeepsPortMemory(t *testing.T) {
	q, d := client.PortRef("reg", "q", 0), client.PortRef("reg", "d", 0)
	out := protocol.NetMsg{Source: q, Sinks: []server.EndPointMsg{pin(6, 20, arch.S0F3), pin(9, 13, arch.S0F3)}}
	in := protocol.NetMsg{Source: pin(5, 7, arch.S1YQ), Sinks: []server.EndPointMsg{d, pin(6, 8, arch.S0F3)}}
	for _, net := range []struct {
		name string
		protocol.NetMsg
	}{{"out", out}, {"in", in}} {
		for _, reverse := range []bool{false, true} {
			for _, replaceFirst := range []bool{true, false} {
				name := fmt.Sprintf("%s/reverse=%v/replace-first=%v", net.name, reverse, replaceFirst)
				t.Run(name, func(t *testing.T) {
					portMemoryMove(t, net.NetMsg, reverse, replaceFirst)
				})
			}
		}
	}
}

func portMemoryMove(t *testing.T, net protocol.NetMsg, reverse, replaceFirst bool) {
	be0, be1 := startBackend(t, 1), startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.NewCore(ctx, protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Route(ctx, net.Source, net.Sinks...); err != nil {
		t.Fatal(err)
	}
	sinks := func() int {
		traced, err := s.Trace(ctx, net.Source)
		if err != nil {
			return 0 // an unrouted source does not trace
		}
		return len(traced.Sinks)
	}
	left := 0
	if reverse {
		err, left = s.ReverseUnroute(ctx, net.Sinks[0]), 1
	} else {
		err = s.Unroute(ctx, net.Source)
	}
	if err != nil {
		t.Fatal(err)
	}
	replace := func() {
		t.Helper()
		if err := s.ReplaceCore(ctx, protocol.CoreMsg{Name: "reg", Row: 8, Col: 16}); err != nil {
			t.Fatal(err)
		}
	}
	if replaceFirst {
		replace()
	}
	if moved, err := g.Drain(ctx, "be0"); err != nil || len(moved) != 1 {
		t.Fatalf("drain: moved %v, %v", moved, err)
	}
	if !replaceFirst {
		if got := sinks(); got != left {
			t.Fatalf("after the move, before the replace: %d sinks traced, want %d", got, left)
		}
		replace()
	}
	if got := sinks(); got != len(net.Sinks) {
		t.Errorf("after the replace and the move: %d sinks traced, want %d", got, len(net.Sinks))
	}
	if got := backendOf(t, s); got != "be1" {
		t.Errorf("session on %s, want be1", got)
	}
}

// TestEjectionRetriesFailedHandoff: when an ejection's handoff fails (here a
// co-tenant on the only other backend drives a sink the session needs), the
// session stays pinned to the dead backend, and the next probe round moves
// it once the conflict has cleared.
func TestEjectionRetriesFailedHandoff(t *testing.T) {
	coord0, err := fleet.New(fleet.Config{Boards: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := server.NewServer()
	srv0.SetFleet(coord0)
	be0, err := srv0.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be1 := startBackend(t, 1)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	src, sink := pin(5, 7, arch.S1YQ), pin(9, 10, arch.S0F3)
	if err := s0.Route(ctx, src, sink); err != nil {
		t.Fatal(err)
	}
	direct, err := client.Dial(ctx, be1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	bl, err := direct.Session(ctx, "blocker")
	if err != nil {
		t.Fatal(err)
	}
	blockSrc := pin(11, 3, arch.S1YQ)
	if err := bl.Route(ctx, blockSrc, sink); err != nil {
		t.Fatal(err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := srv0.Shutdown(sctx); err != nil {
		t.Fatalf("shutting down be0: %v", err)
	}
	g.ProbeAll(ctx)
	if gs := g.GatewayStats(); gs.Ejections != 1 || gs.Handoffs != 0 || gs.HandoffFails != 1 {
		t.Fatalf("ejections/handoffs/fails = %d/%d/%d, want 1/0/1", gs.Ejections, gs.Handoffs, gs.HandoffFails)
	}
	if err := bl.Unroute(ctx, blockSrc); err != nil {
		t.Fatal(err)
	}
	g.ProbeAll(ctx)
	if gs := g.GatewayStats(); gs.Handoffs != 1 {
		t.Fatalf("handoffs = %d after the conflict cleared, want 1", gs.Handoffs)
	}
	if net, err := s0.Trace(ctx, src); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net lost in the retried ejection handoff: %+v, %v", net, err)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s, want be1", got)
	}
}

// TestProbeHandoffIsBounded: a probe round whose handoff target accepts
// connections and never answers gives the handoff up at its bound. be0
// dies with a session pinned to it and be1 is a listener that never reads:
// ProbeAll returns (two probes and one handoff, each bounded at 2 s), the
// handoff counts as failed, and the session, still pinned to be0, answers
// its next op with the retryable failover code inside that op's deadline
// instead of queueing behind a move that never ends.
func TestProbeHandoffIsBounded(t *testing.T) {
	coord0, err := fleet.New(fleet.Config{Boards: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := server.NewServer()
	srv0.SetFleet(coord0)
	be0, err := srv0.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: silent.Addr().String(), Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	src := pin(5, 7, arch.S1YQ)
	if err := s0.Route(ctx, src, pin(6, 8, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if err := srv0.Shutdown(ctx); err != nil {
		t.Fatalf("shutting down be0: %v", err)
	}

	done := make(chan struct{})
	go func() {
		g.ProbeAll(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ProbeAll still running after 10 s: its handoff to a silent target is unbounded")
	}
	if gs := g.GatewayStats(); gs.Handoffs != 0 || gs.HandoffFails != 1 {
		t.Errorf("handoffs/handoff_fails = %d/%d, want 0/1", gs.Handoffs, gs.HandoffFails)
	}
	opCtx, opCancel := context.WithTimeout(ctx, 2*time.Second)
	defer opCancel()
	if _, err := s0.Trace(opCtx, src); !errors.Is(err, client.ErrFailover) {
		t.Errorf("trace on the stranded session: %v, want the failover code", err)
	}
}

// TestBackgroundProbeMovesSession: with background probing on and no
// client traffic, a session pinned to a backend that was shut down is moved
// by a probe tick, its net with it.
func TestBackgroundProbeMovesSession(t *testing.T) {
	coord0, err := fleet.New(fleet.Config{Boards: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := server.NewServer()
	srv0.SetFleet(coord0)
	be0, err := srv0.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: startBackend(t, 1), Classes: []string{"v1000-class"}},
		},
		ProbeIntervalMillis: 20,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s0, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
	if err != nil {
		t.Fatal(err)
	}
	src := pin(5, 7, arch.S1YQ)
	if err := s0.Route(ctx, src, pin(9, 10, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s0); got != "be0" {
		t.Fatalf("s0 placed on %s, want be0", got)
	}
	if err := srv0.Shutdown(ctx); err != nil {
		t.Fatalf("shutting down be0: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); g.GatewayStats().Handoffs != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no probe tick moved s0 within 10 s: %+v", g.GatewayStats())
		}
	}
	if net, err := s0.Trace(ctx, src); err != nil || net == nil || len(net.Sinks) != 1 {
		t.Errorf("net lost in the probe-driven move: %+v, %v", net, err)
	}
	if got := backendOf(t, s0); got != "be1" {
		t.Errorf("s0 on %s, want be1", got)
	}
}

// TestShutdownCutsProbeTick: Shutdown stops a probe tick in flight against
// a backend that accepts connections and never answers (the set-up of
// TestProbeHandoffIsBounded) instead of waiting out that tick's probe and
// handoff bounds.
func TestShutdownCutsProbeTick(t *testing.T) {
	coord0, err := fleet.New(fleet.Config{Boards: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := server.NewServer()
	srv0.SetFleet(coord0)
	be0, err := srv0.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: silent.Addr().String(), Classes: []string{"v1000-class"}},
		},
		ProbeIntervalMillis: 20,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SessionWithKey(ctx, "v1000-class/s0", 0); err != nil {
		t.Fatal(err)
	}
	if err := srv0.Shutdown(ctx); err != nil {
		t.Fatalf("shutting down be0: %v", err)
	}
	// be0's probe fails at once; the tick then spends up to 2 s on the
	// handoff to be1 and 2 s more on be1's probe.
	for deadline := time.Now().Add(10 * time.Second); g.GatewayStats().ProbeFails == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no probe tick saw be0 down within 10 s")
		}
	}
	start := time.Now()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown took %v with a probe tick in flight, want under 1 s", took)
	}
}
