package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
	"repro/internal/workload"
)

// TestScriptMovesKeepState drives a seeded workload script through a gateway
// with two backends — routes, fanouts, buses sent as bus, bus_batch and
// batch, unroutes, reverse unroutes, registers with a route off their
// output port, Kind-less core replaces — and moves the session four times:
// three gw_drains, then an ejection. Each move lands on a backend that holds
// nothing of the session (a drained backend is restarted as a fresh fleet
// behind its address before it is readmitted). After every move the
// target's readback is the source's last configuration byte for byte, each
// live source traces the sinks it traced before the move, each unrouted
// source traces nothing, and the readback audits clean against the nets.
func TestScriptMovesKeepState(t *testing.T) {
	const rows, cols, steps = 16, 24, 200
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	newFleet := func() *fleet.Coordinator {
		coord, err := fleet.New(fleet.Config{Boards: 1, Rows: rows, Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}
	var srvs [2]*server.Server
	var coords [2]*fleet.Coordinator
	cfg := gateway.Config{}
	for i := range srvs {
		coords[i], srvs[i] = newFleet(), server.NewServer()
		srvs[i].SetFleet(coords[i])
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := srvs[i]
		t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
		cfg.Backends = append(cfg.Backends, gateway.BackendConfig{
			Name: fmt.Sprintf("be%d", i), Addr: addr, Classes: []string{"v1000-class"}})
	}
	addr, g := startGateway(t, cfg)
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.SessionWithKey(ctx, "v1000-class/script", 0)
	if err != nil {
		t.Fatal(err)
	}

	// live and gone are the sources the client holds routed and the ones
	// it unrouted, by endpoint.
	live := map[string]server.EndPointMsg{}
	gone := map[string]server.EndPointMsg{}
	name := func(ep server.EndPointMsg) string {
		if ep.IsPort {
			return fmt.Sprintf("%+v", ep.Port)
		}
		return fmt.Sprintf("%+v", ep.Pin)
	}
	routed := func(srcs ...server.EndPointMsg) {
		for _, src := range srcs {
			live[name(src)] = src
			delete(gone, name(src))
		}
	}
	pins := func(ps []core.Pin) []server.EndPointMsg {
		out := make([]server.EndPointMsg, len(ps))
		for i, p := range ps {
			out[i] = client.Pin(p)
		}
		return out
	}
	acked := map[string]int{}
	regs := map[int]string{}
	run := func(op workload.ScriptOp) {
		var kind string
		var err error
		switch op.Kind {
		case workload.OpRouteNet, workload.OpReroute, workload.OpRouteFanout:
			kind = map[bool]string{false: "route", true: "fanout"}[len(op.Sinks) > 1]
			if err = s.Route(ctx, client.Pin(op.Src), pins(op.Sinks)...); err == nil {
				routed(client.Pin(op.Src))
			}
		case workload.OpRouteBus:
			srcs, dsts := pins(op.Srcs), pins(op.Dsts)
			switch op.Serial % 3 {
			case 0:
				kind, err = "bus", s.RouteBus(ctx, srcs, dsts)
			case 1:
				kind, err = "bus_batch", s.RouteBusBatch(ctx, srcs, dsts)
			default:
				nets := make([]protocol.NetMsg, len(srcs))
				for i := range srcs {
					nets[i] = protocol.NetMsg{Source: srcs[i], Sinks: dsts[i : i+1]}
				}
				kind, err = "batch", s.RouteBatch(ctx, nets)
			}
			if err == nil {
				routed(srcs...)
			}
		case workload.OpUnroute:
			src := client.Pin(op.Src)
			if kind, err = "unroute", s.Unroute(ctx, src); err == nil {
				delete(live, name(src))
				gone[name(src)] = src
			}
		case workload.OpReverseUnroute:
			kind, err = "reverse_unroute", s.ReverseUnroute(ctx, client.Pin(op.Sinks[0]))
		case workload.OpCoreNew:
			reg := fmt.Sprintf("reg%d_%d", op.Slot, op.Serial)
			row, col := workload.CoreSlotSite(op.Slot, rows, cols)
			if kind, err = "core_new", s.NewCore(ctx, protocol.CoreMsg{Name: reg, Kind: "register", Row: row, Col: col, Bits: 4}); err != nil {
				break
			}
			regs[op.Slot] = reg
			acked[kind]++
			q := client.PortRef(reg, "q", 0)
			if kind, err = "port route", s.Route(ctx, q, client.Pin(op.Sinks[0])); err == nil {
				routed(q)
			}
		case workload.OpCoreReplace:
			reg, ok := regs[op.Slot]
			if !ok {
				return
			}
			row, col := workload.CoreSlotSite(op.Slot, rows, cols)
			kind, err = "core_replace", s.ReplaceCore(ctx, protocol.CoreMsg{Name: reg, Row: row, Col: col})
		default:
			t.Fatalf("step %d: op kind %v", op.Serial, op.Kind)
		}
		if err == nil {
			acked[kind]++
		}
	}

	// traced reads every live source's net: its sinks by name, and the
	// claim the board must satisfy.
	traced := func() (map[string][]string, []oracle.Claim) {
		sinks := map[string][]string{}
		var claims []oracle.Claim
		for k, src := range live {
			net, err := s.Trace(ctx, src)
			if err != nil {
				t.Fatalf("trace %s: %v", k, err)
			}
			claim := oracle.Claim{Source: oracle.Pin{Row: net.Source.Pin.Row, Col: net.Source.Pin.Col, W: arch.Wire(net.Source.Pin.Wire)}}
			for _, sk := range net.Sinks {
				sinks[k] = append(sinks[k], name(sk))
				claim.Sinks = append(claim.Sinks, oracle.Pin{Row: sk.Pin.Row, Col: sk.Pin.Col, W: arch.Wire(sk.Pin.Wire)})
			}
			sort.Strings(sinks[k])
			if len(claim.Sinks) > 0 {
				claims = append(claims, claim)
			}
		}
		return sinks, claims
	}
	restart := func(i int) {
		old := coords[i]
		coords[i] = newFleet()
		srvs[i].SetFleet(coords[i])
		if err := old.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		g.Undrain(fmt.Sprintf("be%d", i))
	}
	moves := 0
	move := func(what string, do func(from int)) {
		t.Helper()
		from := int(backendOf(t, s)[2] - '0')
		before, _ := traced()
		shipped, err := s.Readback(ctx)
		if err != nil {
			t.Fatal(err)
		}
		do(from)
		moves++
		back, err := s.Readback(ctx) // the first op after the move resyncs the mirror
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, shipped) {
			t.Fatalf("%s: the target's configuration differs from the source's", what)
		}
		if to := backendOf(t, s); to == fmt.Sprintf("be%d", from) || s.Resyncs != moves {
			t.Fatalf("%s: the session is on %s after %d resyncs", what, to, s.Resyncs)
		}
		after, claims := traced()
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: live nets trace\n%v\nafter the move, and traced\n%v\nbefore", what, after, before)
		}
		for k, src := range gone {
			if net, err := s.Trace(ctx, src); err == nil && net != nil && len(net.Sinks) > 0 {
				t.Errorf("%s: unrouted source %s traces %d sinks", what, k, len(net.Sinks))
			}
		}
		if err := oracle.Audit(s.Mirror.A, back, claims, false); err != nil {
			t.Fatalf("%s: the target fails the oracle audit: %v", what, err)
		}
		if gs := g.GatewayStats(); gs.Handoffs != moves || gs.HandoffFails != 0 {
			t.Fatalf("%s: handoffs/fails = %d/%d, want %d/0", what, gs.Handoffs, gs.HandoffFails, moves)
		}
		t.Logf("%s: %d live nets moved, %d unrouted sources absent", what, len(before), len(gone))
	}
	drain := func(from int) {
		name := fmt.Sprintf("be%d", from)
		if moved, err := g.Drain(ctx, name); err != nil || len(moved) != 1 {
			t.Fatalf("drain %s: moved %v, %v", name, moved, err)
		}
		restart(from)
	}
	eject := func(from int) {
		if err := srvs[from].Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		g.ProbeAll(ctx)
	}

	script, err := workload.New(5, rows, cols).Script(workload.ScriptOptions{Steps: steps, CoreSlots: 2, MaxLive: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range script {
		switch i {
		case steps / 5, 2 * steps / 5, 3 * steps / 5:
			move(fmt.Sprintf("drain at step %d", i), drain)
		case 4 * steps / 5:
			move(fmt.Sprintf("ejection at step %d", i), eject)
		}
		run(op)
	}
	for _, kind := range []string{"route", "fanout", "bus", "bus_batch", "batch", "unroute", "reverse_unroute", "core_new", "port route", "core_replace"} {
		if acked[kind] == 0 {
			t.Errorf("the script never acked a %s: %v", kind, acked)
		}
	}
	t.Logf("acked ops: %v", acked)
}
