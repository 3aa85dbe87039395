package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
)

// startDaemon boots an in-process jrouted with the given devices and
// returns its address; it is shut down at test cleanup.
func startDaemon(t *testing.T, opts server.Options, devices ...string) (string, *server.Server) {
	t.Helper()
	srv := server.NewServer(func(o *server.Options) { *o = opts })
	for _, d := range devices {
		if err := srv.AddDevice(d, "virtex", 16, 24); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr, srv
}

// driveSession runs one client session through the full JRoute surface:
// route -> trace -> unroute, core instantiation, bus routing, batch
// routing, and a §3.3 core replacement — then checks the mirrored
// bitstream against the server's readback.
func driveSession(t *testing.T, addr, dev string) error {
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	s, err := c.Session(ctx, dev)
	if err != nil {
		return err
	}

	// Point-to-point route, trace, unroute (the §3.1 worked example).
	src := client.Pin(core.NewPin(5, 7, arch.S1YQ))
	sink := client.Pin(core.NewPin(6, 8, arch.S0F3))
	if err := s.Route(ctx, src, sink); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	net, err := s.Trace(ctx, src)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(net.Sinks) != 1 || len(net.Pips) == 0 {
		return fmt.Errorf("trace returned %d sinks, %d pips", len(net.Sinks), len(net.Pips))
	}
	if err := s.Unroute(ctx, src); err != nil {
		return fmt.Errorf("unroute: %w", err)
	}
	if net, err := s.Trace(ctx, src); err != nil {
		return fmt.Errorf("trace after unroute: %w", err)
	} else if len(net.Pips) != 0 || len(net.Sinks) != 0 {
		return errors.New("net still populated after unroute")
	}

	// Negotiated batch routing of a small crossing bus.
	var nets []protocol.NetMsg
	for i := 0; i < 4; i++ {
		nets = append(nets, protocol.NetMsg{
			Source: client.Pin(core.NewPin(10+i, 2, arch.OutPin(i))),
			Sinks:  []server.EndPointMsg{client.Pin(core.NewPin(13-i, 6, arch.Input(i)))},
		})
	}
	if err := s.RouteBatch(ctx, nets); err != nil {
		return fmt.Errorf("batch: %w", err)
	}

	// Core instantiation: constant multiplier feeding a register.
	k := uint64(3)
	if err := s.NewCore(ctx, protocol.CoreMsg{Name: "mul", Kind: "constmul", Row: 4, Col: 10, K: &k, KBits: 2}); err != nil {
		return fmt.Errorf("core_new mul: %w", err)
	}
	if err := s.NewCore(ctx, protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 6}); err != nil {
		return fmt.Errorf("core_new reg: %w", err)
	}
	var srcs, dsts []server.EndPointMsg
	for i := 0; i < 6; i++ {
		srcs = append(srcs, client.PortRef("mul", "p", i))
		dsts = append(dsts, client.PortRef("reg", "d", i))
	}
	if err := s.RouteBus(ctx, srcs, dsts); err != nil {
		return fmt.Errorf("bus p->d: %w", err)
	}
	// External drive into the multiplier input port.
	if err := s.Route(ctx, client.Pin(core.NewPin(2, 2, arch.S0X)), client.PortRef("mul", "x", 0)); err != nil {
		return fmt.Errorf("route into x0: %w", err)
	}

	// §3.3 replacement: retune K and relocate; remembered connections are
	// restored against the new placement.
	k2 := uint64(2)
	if err := s.ReplaceCore(ctx, protocol.CoreMsg{Name: "mul", Row: 9, Col: 10, K: &k2}); err != nil {
		return fmt.Errorf("core_replace: %w", err)
	}
	if _, err := s.Trace(ctx, client.PortRef("mul", "p", 0)); err != nil {
		return fmt.Errorf("trace after replace: %w", err)
	}

	// The acceptance check: the mirror, advanced only by pushed partial
	// frames since connect, must be byte-identical to the server's full
	// configuration.
	if s.FramesApplied == 0 {
		return errors.New("no partial frames were pushed")
	}
	// The patched bitstream must also decode into a legal routing state.
	if err := s.SyncMirror(); err != nil {
		return err
	}
	mine, err := s.Mirror.FullConfig()
	if err != nil {
		return err
	}
	theirs, err := s.Readback(ctx)
	if err != nil {
		return err
	}
	if !bytes.Equal(mine, theirs) {
		return fmt.Errorf("mirror diverged from server bitstream (%d vs %d bytes)", len(mine), len(theirs))
	}
	return nil
}

// TestServiceEndToEnd is the acceptance test: an in-process daemon serving
// two devices, two concurrent client sessions driving the full surface,
// and byte-identical mirrors at the end of each.
func TestServiceEndToEnd(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "alpha", "beta")
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, dev := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(dev string) {
			defer wg.Done()
			if err := driveSession(t, addr, dev); err != nil {
				errs <- fmt.Errorf("%s: %w", dev, err)
			}
		}(dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServiceErrors: unknown devices, unknown ops, bad endpoints and
// contended routes surface as errors without killing the connection.
func TestServiceErrors(t *testing.T) {
	ctx := context.Background()
	addr, _ := startDaemon(t, server.Options{}, "dev")
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Session(ctx, "nope"); err == nil {
		t.Error("connect to unknown device succeeded")
	}
	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	// Unroute of an unrouted net errors but the session survives.
	if err := s.Unroute(ctx, client.Pin(core.NewPin(5, 7, arch.S1YQ))); err == nil {
		t.Error("unroute of unrouted net succeeded")
	}
	// Bad wire number.
	if err := s.Route(ctx, server.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 1, Wire: 1 << 20}},
		client.Pin(core.NewPin(2, 2, arch.S0F1))); err == nil {
		t.Error("absurd wire number accepted")
	}
	// Port ref into a nonexistent core.
	if err := s.Route(ctx, client.PortRef("ghost", "p", 0), client.Pin(core.NewPin(2, 2, arch.S0F1))); err == nil {
		t.Error("port of unknown core accepted")
	}
	// The session still works after all that.
	if err := s.Route(ctx, client.Pin(core.NewPin(5, 7, arch.S1YQ)), client.Pin(core.NewPin(6, 8, arch.S0F3))); err != nil {
		t.Fatalf("session dead after errors: %v", err)
	}

	devs, err := c.Devices(ctx)
	if err != nil || len(devs) != 1 || devs[0] != "dev" {
		t.Errorf("devices = %v, %v", devs, err)
	}
}

// TestServiceStats: statsz reports routes, rip-ups, shipped frames and
// latency histograms after a little traffic.
func TestServiceStats(t *testing.T) {
	ctx := context.Background()
	addr, _ := startDaemon(t, server.Options{}, "dev")
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	src := client.Pin(core.NewPin(5, 7, arch.S1YQ))
	for i := 0; i < 3; i++ {
		if err := s.Route(ctx, src, client.Pin(core.NewPin(6, 8, arch.S0F3))); err != nil {
			t.Fatal(err)
		}
		if err := s.Unroute(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := stats.Sessions["dev"]
	if !ok {
		t.Fatal("statsz missing session")
	}
	if ss.Routes != 3 {
		t.Errorf("routes = %d, want 3", ss.Routes)
	}
	if ss.RipUps == 0 {
		t.Error("no rip-ups counted despite unroutes")
	}
	// Each unroute examined the one record sourced at src; a route examines none.
	if ss.RecordsVisited != 3 {
		t.Errorf("records_visited = %d, want 3", ss.RecordsVisited)
	}
	if ss.FramesShipped == 0 || ss.BytesShipped == 0 {
		t.Errorf("shipped = %d frames / %d bytes", ss.FramesShipped, ss.BytesShipped)
	}
	route := ss.Ops["route"]
	if route.Count != 3 || route.Errors != 0 {
		t.Errorf("route op stats = %+v", route)
	}
	if route.P99us < route.P50us || route.P50us == 0 {
		t.Errorf("histogram broken: p50=%v p99=%v", route.P50us, route.P99us)
	}
	if _, ok := ss.Ops["unroute"]; !ok {
		t.Error("unroute missing from op stats")
	}
}

// TestServiceStatsPartition: the partition-negotiation counters reach
// statsz — a batch op on the default (partitioned) router reports its
// scopes and iterations over the wire.
func TestServiceStatsPartition(t *testing.T) {
	ctx := context.Background()
	addr, _ := startDaemon(t, server.Options{}, "dev")
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	srcs := []server.EndPointMsg{
		client.Pin(core.NewPin(2, 3, arch.S1YQ)),
		client.Pin(core.NewPin(5, 3, arch.S1YQ)),
	}
	dsts := []server.EndPointMsg{
		client.Pin(core.NewPin(2, 9, arch.S0F3)),
		client.Pin(core.NewPin(5, 9, arch.S0F3)),
	}
	if err := s.RouteBusBatch(ctx, srcs, dsts); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := stats.Sessions["dev"]
	if !ok {
		t.Fatal("statsz missing session")
	}
	// On a 16x24 array the inflated bounding boxes span the device, so the
	// batch is one scope — either way the counters must tick over the wire.
	if ss.PartitionRegions < 1 {
		t.Errorf("partition_regions = %d, want >= 1", ss.PartitionRegions)
	}
	if ss.BatchIterations < 1 {
		t.Errorf("no negotiation iterations in statsz: %d", ss.BatchIterations)
	}
}

// TestGracefulShutdown: a loaded daemon answers everything in flight,
// drains, and refuses new work afterwards.
func TestGracefulShutdown(t *testing.T) {
	ctx := context.Background()
	srv := server.NewServer()
	if err := srv.AddDevice("dev", "virtex", 16, 24); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	// Traffic in flight while we shut down.
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		src := client.Pin(core.NewPin(5, 7, arch.S1YQ))
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			if err := s.Route(ctx, src, client.Pin(core.NewPin(6, 8, arch.S0F3))); err != nil {
				done <- n
				return
			}
			n++
			if err := s.Unroute(ctx, src); err != nil {
				done <- n
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	close(stop)
	if n := <-done; n == 0 {
		t.Error("no requests completed before shutdown")
	}
	if _, err := client.Dial(sctx, addr); err == nil {
		t.Error("daemon still accepting after shutdown")
	}
}

// panicFleet is a server.Fleet whose Submit panics on readback and answers
// every other op empty.
type panicFleet struct{}

func (panicFleet) Submit(_ context.Context, req *server.Request) *server.Response {
	if req.Op == "readback" {
		panic("panicFleet: readback")
	}
	return &server.Response{ID: req.ID}
}
func (panicFleet) Sessions() []string                 { return nil }
func (panicFleet) Stats() *protocol.FleetStatsMsg     { return &protocol.FleetStatsMsg{} }
func (panicFleet) Shutdown(ctx context.Context) error { return nil }

// TestConnPanicEndsOneConnection: a panic on a connection goroutine — here
// in the attached fleet's Submit, which a gateway edge also runs there —
// closes that connection only. Its op ends in a transport error; a second
// connection on the same server keeps serving statsz, which counts the
// panic.
func TestConnPanicEndsOneConnection(t *testing.T) {
	srv := server.NewServer()
	srv.SetFleet(panicFleet{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Shutdown(ctx)
	dial := func() *client.Client {
		t.Helper()
		c, err := client.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c1, c2 := dial(), dial()

	_, err = c1.Forward(ctx, &server.Request{Op: "readback", Session: "s"})
	var se *client.ServiceError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("op that panicked: err %v, want a transport error", err)
	}
	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatalf("second connection after the panic: %v", err)
	}
	if stats.Wire == nil || stats.Wire.Panics != 1 {
		t.Errorf("wire stats = %+v, want 1 panic", stats.Wire)
	}
}
