package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/gateway"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
	"repro/internal/server/protocol"
)

// churnNet is one session-owned net: a source and its expected sinks.
type churnNet struct {
	src   server.EndPointMsg
	sinks []server.EndPointMsg
}

// bandNets lays out session i's working set inside a private 4-row band —
// one short same-row net per row, the last a 2-sink fanout — so sessions
// that end up sharing a board never contend for fabric.
func bandNets(i int) []churnNet {
	nets := make([]churnNet, 4)
	for k := range nets {
		row := 2 + 4*i + k
		nets[k] = churnNet{
			src:   pin(row, 3+2*k, arch.S1YQ),
			sinks: []server.EndPointMsg{pin(row, 5+2*k, arch.S0F3)},
		}
		if k == len(nets)-1 {
			nets[k].sinks = append(nets[k].sinks, pin(row, 7+2*k, arch.S0F3))
		}
	}
	return nets
}

// TestLiveDrainMidChurn drains a backend while its sessions are mid-op:
// four sessions over two single-board backends cycle route-all /
// unroute-all, gw_drain be0 fires once two rounds of routes are acked, and
// every session keeps cycling until the drain has returned. TestDrainJournalHandoff drains a quiescent session; here the
// session state is moving while it is handed off. Zero acked nets may be lost:
// every net of the final round must trace on the survivor, whose board
// must audit clean against every session's claims.
func TestLiveDrainMidChurn(t *testing.T) {
	const nSess = 4
	be0, coord0 := startBackendSized(t, 1, 20, 16)
	be1, coord1 := startBackendSized(t, 1, 20, 16)
	addr, g := startGateway(t, gateway.Config{
		Backends: []gateway.BackendConfig{
			{Name: "be0", Addr: be0, Classes: []string{"v1000-class"}},
			{Name: "be1", Addr: be1, Classes: []string{"v1000-class"}},
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Keys 0..3: sessions 0 and 2 pin to be0 (the drain victims), 1 and 3
	// to be1. All four are connected before the churn starts, so the drain
	// finds both victims whenever it fires.
	sessions := make([]*client.Session, nSess)
	for i := range sessions {
		c, err := client.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.SessionWithKey(ctx, fmt.Sprintf("v1000-class/s%d", i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("be%d", i%2); backendOf(t, s) != want {
			t.Fatalf("s%d on %s, want %s", i, backendOf(t, s), want)
		}
		sessions[i] = s
	}

	// The drain runs on its own goroutine and the sessions churn until it
	// is done, so ops keep arriving at the sessions being moved however
	// fast the machine is.
	var acked atomic.Int64
	var drainOnce sync.Once
	var drainErr error
	drained := make(chan struct{})
	const drainAt = 2 * nSess * 4
	drain := func() {
		defer close(drained)
		admin, err := client.Dial(ctx, addr)
		if err != nil {
			drainErr = err
			return
		}
		defer admin.Close()
		resp, err := admin.Forward(ctx, &server.Request{Op: "gw_drain", Session: "be0"})
		if err != nil {
			drainErr = err
		} else if resp.ErrorCode != protocol.CodeOK {
			drainErr = fmt.Errorf("gw_drain: %s (%s)", resp.Err, resp.ErrorCode)
		}
	}
	// retry rides out the handoff window: ops that race the move come back
	// with a typed retry-me error, never a silent drop.
	retry := func(op func() error) error {
		for attempt := 0; ; attempt++ {
			err := op()
			transient := errors.Is(err, client.ErrFailover) ||
				errors.Is(err, client.ErrBoardDown) || errors.Is(err, client.ErrBusy)
			if !transient || attempt == 2000 {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}

	errs := make([]error, nSess)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *client.Session) {
			defer wg.Done()
			nets := bandNets(i)
			for round := 0; ; round++ {
				last := false
				select {
				case <-drained:
					last = true // one more round on the survivor, left routed
				default:
				}
				for _, n := range nets {
					if err := retry(func() error { return s.Route(ctx, n.src, n.sinks...) }); err != nil {
						errs[i] = fmt.Errorf("route round %d: %w", round, err)
						return
					}
					if acked.Add(1) >= drainAt {
						drainOnce.Do(func() { go drain() })
					}
				}
				if last {
					break
				}
				for _, n := range nets {
					if err := retry(func() error { return s.Unroute(ctx, n.src) }); err != nil {
						errs[i] = fmt.Errorf("unroute round %d: %w", round, err)
						return
					}
				}
			}
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session s%d: %v", i, err)
		}
	}
	if drainErr != nil {
		t.Fatal(drainErr)
	}

	// No acked net lost: the final round of every session traces with all
	// its sinks, on be1, and the survivor's board — read back through each
	// session — audits clean against that session's claims.
	for i, s := range sessions {
		var claims []oracle.Claim
		for _, n := range bandNets(i) {
			net, err := s.Trace(ctx, n.src)
			if err != nil {
				t.Fatalf("s%d trace: %v", i, err)
			}
			if net == nil || len(net.Sinks) != len(n.sinks) {
				t.Errorf("s%d lost acked net at row %d: %+v", i, n.src.Pin.Row, net)
			}
			c := oracle.Claim{Source: oracle.Pin{Row: n.src.Pin.Row, Col: n.src.Pin.Col, W: arch.Wire(n.src.Pin.Wire)}}
			for _, sk := range n.sinks {
				c.Sinks = append(c.Sinks, oracle.Pin{Row: sk.Pin.Row, Col: sk.Pin.Col, W: arch.Wire(sk.Pin.Wire)})
			}
			claims = append(claims, c)
		}
		if got := backendOf(t, s); got != "be1" {
			t.Errorf("s%d on %s after the drain, want be1", i, got)
		}
		if moved := i%2 == 0; moved && s.Resyncs == 0 {
			t.Errorf("s%d moved without re-seeding its mirror", i)
		}
		back, err := s.Readback(ctx)
		if err != nil {
			t.Fatalf("s%d readback: %v", i, err)
		}
		if err := oracle.Audit(s.Mirror.A, back, claims, false); err != nil {
			t.Errorf("s%d: survivor board fails the oracle audit: %v", i, err)
		}
		if err := s.VerifyMirror(); err != nil {
			t.Errorf("s%d: %v", i, err)
		}
	}
	for name, coord := range map[string]*fleet.Coordinator{"be0": coord0, "be1": coord1} {
		coord.ProbeAll(ctx)
		if st := coord.Stats(); st.ProbeFails != 0 {
			t.Errorf("%s: %d boards failed the oracle probe", name, st.ProbeFails)
		}
	}
	gs := g.GatewayStats()
	if gs.Drains != 1 || gs.Handoffs != 2 || gs.HandoffFails != 0 {
		t.Errorf("drains/handoffs/fails = %d/%d/%d, want 1/2/0", gs.Drains, gs.Handoffs, gs.HandoffFails)
	}
}
