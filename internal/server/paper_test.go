package server_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
	"repro/internal/workload"
)

// TestPaperB16ServiceMirrors is B16 (§1/§3.3, JRoute as a run-time
// service): an in-process static daemon hosts two 16×24 devices, and one
// client session on each drives two workloads — crossbar (12 rounds of a
// negotiated 8-wide permuted crossbar over span 10, each net then
// unrouted) and rtr_churn (a 200-step Churn at distance 6, p(unroute)
// 0.35). After every mutating op the daemon ships back only the frames it
// dirtied. Ops, typed errors and each session's shipped frames and bytes
// (statsz) are pinned; each mirror, advanced only by those frames, passes
// the oracle and equals its board's readback byte for byte. No timing is
// asserted.
func TestPaperB16ServiceMirrors(t *testing.T) {
	ctx := context.Background()
	devs := []string{"dev0", "dev1"}
	addr, _ := startDaemon(t, server.Options{}, devs...)
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// ops and typed errors per workload: crossbar, rtr_churn.
	var ops, typed [2]int
	for i, dev := range devs {
		s, err := c.Session(ctx, dev)
		if err != nil {
			t.Fatal(err)
		}
		observe := func(w int, err error) {
			ops[w]++
			var se *client.ServiceError
			if errors.As(err, &se) {
				typed[w]++
			} else if err != nil {
				t.Fatalf("%s: transport error: %v", dev, err)
			}
		}

		g := workload.New(int64(1+i), 16, 24)
		for round := 0; round < 12; round++ {
			srcs, dsts, err := g.CrossbarPins(8, 10)
			if err != nil {
				t.Fatal(err)
			}
			nets := make([]protocol.NetMsg, len(srcs))
			for k := range srcs {
				nets[k] = protocol.NetMsg{Source: client.Pin(srcs[k]), Sinks: []protocol.EndPointMsg{client.Pin(dsts[k])}}
			}
			err = s.RouteBatch(ctx, nets)
			observe(0, err)
			if err != nil {
				continue // contention: nothing was committed
			}
			for _, src := range srcs {
				observe(0, s.Unroute(ctx, client.Pin(src)))
			}
		}

		churn, err := workload.New(int64(1+i), 16, 24).Churn(200, 6, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range churn {
			if op.Route {
				observe(1, s.Route(ctx, client.Pin(op.Src), client.Pin(op.Sink)))
			} else {
				observe(1, s.Unroute(ctx, client.Pin(op.Src)))
			}
		}

		if err := s.VerifyMirror(); err != nil {
			t.Errorf("%s: %v", dev, err)
		}
		mine, err := s.Mirror.FullConfig()
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := s.Readback(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine, theirs) {
			t.Errorf("%s: mirror differs from the board", dev)
		}
	}
	if ops != [2]int{216, 400} || typed != [2]int{0, 0} {
		t.Errorf("crossbar, rtr_churn: %v ops, %v typed errors; pinned [216 400], [0 0]", ops, typed)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]int{{2028, 66202}, {2019, 65834}} {
		ss := stats.Sessions[devs[i]]
		if got := [2]int{ss.FramesShipped, ss.BytesShipped}; got != want {
			t.Errorf("%s shipped %d frames, %d bytes; pinned %d, %d", devs[i], got[0], got[1], want[0], want[1])
		}
	}
}
