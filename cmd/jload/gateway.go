// jload -gateway: an in-process gateway tier in front of N in-process
// backend fleets, for driving the generic workloads through the edge.
package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/fleet"
)

// gwHarness is one self-contained topology: N in-process backend fleets
// behind one in-process gateway daemon.
type gwHarness struct {
	addr     string
	backSrvs []*server.Server
	gwSrv    *server.Server
}

func newGwHarness(nb, boardsPer, rows, cols int, portTime time.Duration) (*gwHarness, error) {
	h := &gwHarness{}
	cfg := gateway.Config{ProbeIntervalMillis: -1} // no background probing
	for b := 0; b < nb; b++ {
		coord, err := fleet.New(fleet.Config{
			Boards: boardsPer, Rows: rows, Cols: cols, PortFrameTime: portTime,
		})
		if err != nil {
			h.shutdown()
			return nil, err
		}
		srv := server.NewServer()
		srv.SetFleet(coord)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			h.shutdown()
			return nil, err
		}
		h.backSrvs = append(h.backSrvs, srv)
		cfg.Backends = append(cfg.Backends, gateway.BackendConfig{
			Name: fmt.Sprintf("be%d", b), Addr: addr, Classes: []string{"v1000-class"},
		})
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		h.shutdown()
		return nil, err
	}
	gwSrv := server.NewServer(server.WithAuth(gw.Authenticate))
	gwSrv.SetFleet(gw)
	addr, err := gwSrv.Start("127.0.0.1:0")
	if err != nil {
		h.shutdown()
		return nil, err
	}
	h.gwSrv = gwSrv
	h.addr = addr
	return h, nil
}

func (h *gwHarness) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h.gwSrv != nil {
		_ = h.gwSrv.Shutdown(ctx) // also shuts the gateway down via SetFleet
	}
	for _, srv := range h.backSrvs {
		_ = srv.Shutdown(ctx)
	}
}

// printGatewayStats fetches statsz from a gateway and prints the gateway
// section: aggregate health plus the per-tenant and per-backend counters.
func printGatewayStats(addr string, copts []client.Option) error {
	ctx := context.Background()
	c, err := client.Dial(ctx, addr, copts...)
	if err != nil {
		return err
	}
	defer c.Close()
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	gs := stats.Gateway
	if gs == nil {
		return errors.New("statsz has no gateway section — is the target a gateway?")
	}
	fmt.Printf("gateway: %d backends (%d healthy, %d draining)  %d sessions  probes %d (%d failed)  ejections %d  readmits %d  drains %d  handoffs %d (%d failed)  restored nets %d\n",
		gs.Backends, gs.HealthyBackends, gs.DrainingBackends, gs.Sessions,
		gs.Probes, gs.ProbeFails, gs.Ejections, gs.Readmits,
		gs.Drains, gs.Handoffs, gs.HandoffFails, gs.RestoredNets)
	var names []string
	for name := range gs.BackendsMap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := gs.BackendsMap[name]
		state := "healthy"
		if !b.Healthy {
			state = "UNHEALTHY"
		}
		if b.Draining {
			state += ",draining"
		}
		fmt.Printf("  backend %-8s %-20s %-17s classes=%v  sessions %d  ops %d  errors %d  probe fails %d\n",
			name, b.Addr, state, b.Classes, b.Sessions, b.Ops, b.Errors, b.ProbeFails)
	}
	names = names[:0]
	for name := range gs.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := gs.Tenants[name]
		fmt.Printf("  tenant  %-8s sessions %d  admitted ops %d  rejected ops %d  rejected sessions %d\n",
			name, t.Sessions, t.AdmittedOps, t.RejectedOps, t.RejectedSessions)
	}
	return nil
}
