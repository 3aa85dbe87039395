package gateway_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// twoBackends boots two single-board fleets and a gateway over them; key 0
// pins a session to be0.
func twoBackends(t *testing.T) (be0, be1, addr string, g *gateway.Gateway) {
	t.Helper()
	be0, be1 = startBackend(t, 1), startBackend(t, 1)
	addr, g = startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	return be0, be1, addr, g
}

// drain drains be0, which must move one session.
func drain(t *testing.T, ctx context.Context, g *gateway.Gateway) {
	t.Helper()
	if moved, err := g.Drain(ctx, "be0"); err != nil || len(moved) != 1 {
		t.Fatalf("drain: moved %v, %v", moved, err)
	}
}

// moveChecked drains be0, which must move s, the one session there, and
// requires the target to hold the source's configuration byte for byte.
func moveChecked(t *testing.T, ctx context.Context, g *gateway.Gateway, s *client.Session) {
	t.Helper()
	shipped, err := s.Readback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ctx, g)
	back, err := s.Readback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := backendOf(t, s); got != "be1" {
		t.Fatalf("session on %s after the drain, want be1", got)
	}
	if !bytes.Equal(back, shipped) {
		t.Fatal("the target's configuration differs from the source's")
	}
}

// sinksOf traces a source through the session: the sinks it reaches, or
// none when it is not routed.
func sinksOf(ctx context.Context, s *client.Session, src protocol.EndPointMsg) []string {
	net, err := s.Trace(ctx, src)
	if err != nil {
		return nil
	}
	var out []string
	for _, sk := range net.Sinks {
		out = append(out, fmt.Sprint(sk.Pin))
	}
	sort.Strings(out)
	return out
}

// TestMovePortNetUnroutedByPin: a net routed from a core's port and
// unrouted by the pin the port resolves to is gone — the router retires
// every record of the net it unroutes, whichever endpoint named it — and a
// move must not bring it back.
func TestMovePortNetUnroutedByPin(t *testing.T) {
	_, _, addr, g := twoBackends(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	q := client.PortRef("reg", "q", 0)
	if err := s.Route(ctx, q, pin(6, 20, arch.S0F3)); err != nil {
		t.Fatal(err)
	}
	net, err := s.Trace(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Unroute(ctx, net.Source); err != nil {
		t.Fatal(err)
	}
	moveChecked(t, ctx, g, s)
	if got := sinksOf(ctx, s, net.Source); len(got) != 0 {
		t.Errorf("the unrouted net reaches %v after the move", got)
	}
}

// TestMoveSeparatelyRoutedSinks: a pin-sourced net whose pin sink and port
// sink came from two routes is two records. An unroute takes both down and
// port memory keeps only the port one, so a core_replace brings back only
// the port sink, and a move must hold exactly that.
func TestMoveSeparatelyRoutedSinks(t *testing.T) {
	_, _, addr, g := twoBackends(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	src := pin(5, 7, arch.S1YQ)
	for _, sink := range []protocol.EndPointMsg{pin(6, 8, arch.S0F3), client.PortRef("reg", "d", 0)} {
		if err := s.Route(ctx, src, sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Unroute(ctx, src); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceCore(ctx, protocol.CoreMsg{Name: "reg", Row: 8, Col: 16}); err != nil {
		t.Fatal(err)
	}
	before := sinksOf(ctx, s, src)
	if len(before) != 1 {
		t.Fatalf("after the replace the net reaches %v, want the port sink alone", before)
	}
	moveChecked(t, ctx, g, s)
	if got := sinksOf(ctx, s, src); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("after the move the net reaches %v, before it %v", got, before)
	}
}

// TestMoveCostsTwoRoundTrips: a move is a connect and one session_import,
// whatever the session holds.
func TestMoveCostsTwoRoundTrips(t *testing.T) {
	for _, nets := range []int{1, 50} {
		t.Run(fmt.Sprintf("%d nets", nets), func(t *testing.T) {
			_, _, addr, g := twoBackends(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
			for i := 0; i < nets; i++ {
				row, col := 1+i%14, 1+5*(i/14)
				if err := s.Route(ctx, pin(row, col, arch.S1YQ), pin(row, col+2, arch.S0F3)); err != nil {
					t.Fatalf("net %d: %v", i, err)
				}
			}
			ops := func() int { return g.GatewayStats().BackendsMap["be1"].Ops }
			before := ops()
			drain(t, ctx, g)
			if got := ops() - before; got != 2 {
				t.Errorf("the move cost %d round trips to the target, want 2", got)
			}
			if net, err := s.Trace(ctx, pin(1+(nets-1)%14, 1+5*((nets-1)/14), arch.S1YQ)); err != nil || len(net.Sinks) != 1 {
				t.Errorf("the last net does not trace after the move: %+v, %v", net, err)
			}
			if gs := g.GatewayStats(); gs.RestoredNets != nets {
				t.Errorf("restored nets = %d, want %d", gs.RestoredNets, nets)
			}
		})
	}
}

// TestMoveLeavesSlotmateUntouched: a session the gateway moves shares its
// fleet slot with one a client holds directly. The move takes only the
// moved session's cores and records to the target, and the one left behind
// keeps its nets, its core and the source's bytes.
func TestMoveLeavesSlotmateUntouched(t *testing.T) {
	be0, be1, addr, g := twoBackends(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	moved, err := c.SessionWithKey(ctx, "v1000-class/a", 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := client.Dial(ctx, be0)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	stay, err := direct.Session(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*client.Session{moved, stay} {
		name := "reg" + s.Device()[len(s.Device())-1:]
		row := map[bool]int{true: 2, false: 9}[s == moved]
		if err := s.NewCore(ctx, protocol.CoreMsg{Name: name, Kind: "register", Row: row, Col: 16, Bits: 2}); err != nil {
			t.Fatal(err)
		}
		if err := s.Route(ctx, client.PortRef(name, "q", 0), pin(row+1, 20, arch.S0F3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Route(ctx, pin(row, 3, arch.S1YQ), pin(row+1, 6, arch.S0F3)); err != nil {
			t.Fatal(err)
		}
	}
	stayNets := []protocol.EndPointMsg{client.PortRef("regb", "q", 0), pin(9, 3, arch.S1YQ)}
	traces := func() string { return fmt.Sprint(sinksOf(ctx, stay, stayNets[0]), sinksOf(ctx, stay, stayNets[1])) }
	wantTraces := traces()
	source, err := stay.Readback(ctx)
	if err != nil {
		t.Fatal(err)
	}

	drain(t, ctx, g)
	if got := traces(); got != wantTraces {
		t.Errorf("the slotmate's nets reach %s after the move, %s before", got, wantTraces)
	}
	if back, err := stay.Readback(ctx); err != nil || !bytes.Equal(back, source) {
		t.Errorf("the source's configuration changed under the slotmate (%v)", err)
	}
	// The target holds the moved session's core and nets, none of the
	// slotmate's.
	target, err := client.Dial(ctx, be1)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	resp, err := target.Forward(ctx, &protocol.Request{Op: "trace", Session: "v1000-class/a", Source: &stayNets[0]})
	if err != nil || resp.ErrorCode != protocol.CodeBadRequest {
		t.Errorf("the slotmate's core answers on the target: %+v, %v", resp, err)
	}
	resp, err = target.Forward(ctx, &protocol.Request{Op: "trace", Session: "v1000-class/a", Source: &stayNets[1]})
	if err != nil || (resp.Net != nil && len(resp.Net.Sinks) > 0) {
		t.Errorf("the slotmate's pin net is on the target: %+v, %v", resp.Net, err)
	}
	if got := sinksOf(ctx, moved, client.PortRef("rega", "q", 0)); len(got) != 1 {
		t.Errorf("the moved session's port net reaches %v on the target", got)
	}
}

// TestEdgeResponsesCarryNoDelta: the gateway asks its backends for record
// deltas and gets them, but a client's responses through the gateway are
// what they were before deltas existed: no delta flag, no delta bytes.
func TestEdgeResponsesCarryNoDelta(t *testing.T) {
	be0, _, addr, _ := twoBackends(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tier, err := client.Dial(ctx, be0, client.WithDelta())
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	src, sink := pin(3, 3, arch.S1YQ), pin(4, 5, arch.S0F3)
	for _, req := range []*protocol.Request{
		{Op: "connect", Session: "tier"},
		{Op: "route", Session: "tier", Source: &src, Sinks: []protocol.EndPointMsg{sink}},
	} {
		resp, err := tier.Forward(ctx, req)
		if err != nil || resp.ErrorCode != protocol.CodeOK {
			t.Fatalf("%s on the tier hop: %+v, %v", req.Op, resp, err)
		}
		if req.Op == "route" && len(resp.Delta) == 0 {
			t.Error("a mutating response on the tier hop carries no delta")
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	edge := client.NewClient(conn)
	if _, err := edge.Session(ctx, "v1000-class/s0"); err != nil {
		t.Fatal(err)
	}
	src = pin(7, 3, arch.S1YQ)
	frame, err := v3.AppendRequest(nil, &protocol.Request{ID: 99, Op: "route", Session: "v1000-class/s0",
		Source: &src, Sinks: []protocol.EndPointMsg{pin(8, 5, arch.S0F3)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var hdr [v3.HeaderSize]byte
	h, err := v3.ReadHeader(conn, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := v3.ReadPayloadInto(conn, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp protocol.Response
	if err := v3.DecodeResponse(h, payload, &resp); err != nil || resp.ErrorCode != protocol.CodeOK {
		t.Fatalf("route through the gateway: %+v, %v", resp, err)
	}
	head, raw, err := v3.AppendResponse(nil, protocol.OpRoute, &protocol.Response{ID: 99,
		Board: resp.Board, Epoch: resp.Epoch, FrameN: resp.FrameN, Frames: resp.Frames})
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&v3.FlagDelta != 0 || resp.Delta != nil || !bytes.Equal(append(hdr[:], payload...), append(head, raw...)) {
		t.Error("the client-facing response carries more than the frames response")
	}
}

// stallFleet is a backend whose connects wait for release and are then
// refused.
type stallFleet struct{ release chan struct{} }

func (f *stallFleet) Submit(_ context.Context, req *protocol.Request) *protocol.Response {
	if req.Op == "connect" {
		<-f.release
		return &protocol.Response{ErrorCode: protocol.CodeAdmission, Err: "stall: refused"}
	}
	return &protocol.Response{}
}
func (f *stallFleet) Sessions() []string             { return nil }
func (f *stallFleet) Stats() *protocol.FleetStatsMsg { return nil }
func (f *stallFleet) Shutdown(context.Context) error { return nil }

// TestDrainSkipsFailedConnect: a drain that finds a session whose connect
// is still in flight waits for it; when the connect then fails, the session
// is gone, and the drain skips it instead of moving a session with nothing
// to connect with.
func TestDrainSkipsFailedConnect(t *testing.T) {
	fake := &stallFleet{release: make(chan struct{})}
	srv := server.NewServer()
	srv.SetFleet(fake)
	stallAddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: stallAddr, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: startBackend(t, 1), Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	connected := make(chan error, 1)
	go func() {
		_, err := c.SessionWithKey(ctx, "v1000-class/s0", 0)
		connected <- err
	}()
	for g.GatewayStats().Sessions != 1 {
		time.Sleep(time.Millisecond)
	}
	type result struct {
		moved []string
		err   error
	}
	drained := make(chan result, 1)
	go func() {
		moved, err := g.Drain(ctx, "be0")
		drained <- result{moved, err}
	}()
	for g.GatewayStats().DrainingBackends != 1 {
		time.Sleep(time.Millisecond)
	}
	close(fake.release)
	if err := <-connected; err == nil {
		t.Fatal("the refused connect succeeded")
	}
	if r := <-drained; r.err != nil || len(r.moved) != 0 {
		t.Fatalf("drain moved %v, %v; want nothing moved and no error", r.moved, r.err)
	}
	if gs := g.GatewayStats(); gs.Sessions != 0 || gs.Handoffs != 0 || gs.HandoffFails != 0 {
		t.Errorf("sessions/handoffs/fails = %d/%d/%d, want 0/0/0", gs.Sessions, gs.Handoffs, gs.HandoffFails)
	}
}

// TestMoveAfterBackendFailover: a backend's board dies and its fleet fails
// the slot over to a spare, whose router numbers every record afresh. The
// session's next acknowledged op carries its whole form under the new
// numbers, so the gateway's journal follows the spare: an unroute after the
// failover is in it, and a later move reproduces the spare byte for byte.
func TestMoveAfterBackendFailover(t *testing.T) {
	coord, err := fleet.New(fleet.Config{Boards: 1, Spares: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer()
	srv.SetFleet(coord)
	be0, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: startBackend(t, 1), Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	// Churn first, so the dead board's numbers are not the ones a fresh
	// router hands out.
	for i := 0; i < 3; i++ {
		if err := s.Route(ctx, pin(13, 3, arch.S1YQ), pin(14, 5, arch.S0F3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Unroute(ctx, pin(13, 3, arch.S1YQ)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.NewCore(ctx, protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}); err != nil {
		t.Fatal(err)
	}
	netA, netB := pin(5, 7, arch.S1YQ), pin(8, 12, arch.S1YQ)
	for _, n := range [][2]protocol.EndPointMsg{{netA, pin(6, 8, arch.S0F3)}, {netB, pin(9, 13, arch.S0F3)}, {client.PortRef("reg", "q", 0), pin(6, 20, arch.S0F3)}} {
		if err := s.Route(ctx, n[0], n[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	for err := s.Route(ctx, pin(11, 3, arch.S1YQ), pin(12, 4, arch.S0F3)); err != nil; err = s.Route(ctx, pin(11, 3, arch.S1YQ), pin(12, 4, arch.S0F3)) {
		if !errors.Is(err, client.ErrFailover) {
			t.Fatalf("route across the failover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if coord.Epoch(0) != 2 {
		t.Fatalf("slot epoch %d, want 2 after the failover", coord.Epoch(0))
	}
	if err := s.Unroute(ctx, netB); err != nil {
		t.Fatal(err)
	}
	moveChecked(t, ctx, g, s)
	if got := sinksOf(ctx, s, netB); len(got) != 0 {
		t.Errorf("net B, unrouted on the spare, reaches %v after the move", got)
	}
	if got := sinksOf(ctx, s, netA); len(got) != 1 {
		t.Errorf("net A reaches %v after the move", got)
	}
}
