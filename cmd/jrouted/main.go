// jrouted is the run-time routing daemon: it hosts named FPGA device
// sessions and serves the JRoute API (route, unroute, trace, batch and bus
// routing, core instantiation and replacement, bitstream readback) to
// remote clients over the service protocol (binary v3 frames from the
// first byte, a hello first; see internal/server/protocol). After every
// mutating operation the daemon pushes back only the frames it dirtied, so
// thin clients mirror the bitstream incrementally — the partial
// reconfiguration story of §3.3 extended across a wire.
//
// With -boards N the daemon runs in fleet mode instead: a coordinator
// fronts N board-backed shards plus -spares hot spares. Client sessions
// are placed deterministically (FNV-1a of the session name mod N, or an
// explicit placement key), each board is health-probed with the bitstream
// oracle, and when a board dies its acked connections are replayed onto a
// spare through the relocation route cache — clients just see the epoch
// bump and resync their mirror.
//
// Usage:
//
//	jrouted -listen :7411 -device alpha:16x24 -device beta:32x48,kestrel
//	jrouted -listen :7411 -boards 4 -spares 1 -geometry 16x24
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/server/fleet"
)

// deviceSpec is one -device flag value: name:RxC[,arch].
type deviceSpec struct {
	name string
	arch string
	rows int
	cols int
}

type deviceList []deviceSpec

func (l *deviceList) String() string {
	var parts []string
	for _, d := range *l {
		parts = append(parts, fmt.Sprintf("%s:%dx%d", d.name, d.rows, d.cols))
	}
	return strings.Join(parts, " ")
}

func (l *deviceList) Set(v string) error {
	name, geom, ok := strings.Cut(v, ":")
	if !ok || name == "" {
		return fmt.Errorf("want name:RxC[,arch], got %q", v)
	}
	archName := "virtex"
	if g, a, ok := strings.Cut(geom, ","); ok {
		geom, archName = g, a
	}
	var rows, cols int
	if _, err := fmt.Sscanf(geom, "%dx%d", &rows, &cols); err != nil || rows < 1 || cols < 1 {
		return fmt.Errorf("bad geometry in %q (want RxC, e.g. 16x24)", v)
	}
	*l = append(*l, deviceSpec{name: name, arch: archName, rows: rows, cols: cols})
	return nil
}

func main() {
	var devices deviceList
	listen := flag.String("listen", "127.0.0.1:7411", "TCP listen address")
	queue := flag.Int("queue", 64, "per-session request queue depth")
	parallelism := flag.Int("parallelism", 0, "router batch parallelism (0 = all cores)")
	paranoid := flag.Bool("paranoid", false, "audit every routing op with the bitstream oracle before acking")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	boards := flag.Int("boards", 0, "fleet mode: board-backed shards fronted by the coordinator (0 = static -device mode)")
	spares := flag.Int("spares", 0, "fleet mode: hot-spare boards consumed by failover")
	geometry := flag.String("geometry", "16x24", "fleet mode: board geometry as RxC")
	archName := flag.String("arch", "virtex", "fleet mode: board architecture")
	sessionCap := flag.Int("session-cap", 0, "fleet mode: admission cap on sessions per board (0 = unlimited)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "fleet mode: board health-probe period (0 = disabled)")
	flag.Var(&devices, "device", "hosted device as name:RxC[,arch]; repeatable")
	flag.Parse()

	srv := server.NewServer(
		server.WithQueueDepth(*queue),
		server.WithParallelism(*parallelism),
		server.WithParanoidVerify(*paranoid),
	)

	if *boards > 0 {
		if len(devices) > 0 {
			log.Fatal("jrouted: -device and -boards are mutually exclusive; fleet boards are uniform")
		}
		rows, cols, err := parseGeometry(*geometry)
		if err != nil {
			log.Fatalf("jrouted: %v", err)
		}
		coord, err := fleet.New(fleet.Config{
			Boards:        *boards,
			Spares:        *spares,
			Arch:          *archName,
			Rows:          rows,
			Cols:          cols,
			SessionCap:    *sessionCap,
			Opts:          server.Options{QueueDepth: *queue, Parallelism: *parallelism, ParanoidVerify: *paranoid},
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			log.Fatalf("jrouted: fleet: %v", err)
		}
		srv.SetFleet(coord)
		log.Printf("jrouted: fleet of %d boards (+%d spares), %s %s, probe every %v",
			*boards, *spares, *archName, *geometry, *probeInterval)
	} else {
		if len(devices) == 0 {
			devices = deviceList{{name: "dev0", arch: "virtex", rows: 16, cols: 24}}
		}
		for _, d := range devices {
			if err := srv.AddDevice(d.name, d.arch, d.rows, d.cols); err != nil {
				log.Fatalf("jrouted: adding device %s: %v", d.name, err)
			}
			log.Printf("jrouted: hosting %s (%s %dx%d)", d.name, d.arch, d.rows, d.cols)
		}
	}

	addr, err := srv.Start(*listen)
	if err != nil {
		log.Fatalf("jrouted: listen: %v", err)
	}
	log.Printf("jrouted: serving on %s", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("jrouted: shutting down, draining in-flight routes (budget %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("jrouted: %v", err)
		os.Exit(1)
	}
	log.Printf("jrouted: drained cleanly")
}

// parseGeometry parses a -geometry value, RxC.
func parseGeometry(v string) (rows, cols int, err error) {
	if _, err := fmt.Sscanf(v, "%dx%d", &rows, &cols); err != nil || rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("bad -geometry %q (want RxC, e.g. 16x24)", v)
	}
	return rows, cols, nil
}
