package server_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// TestSessionUnderTransportFaults drives client sessions over a
// fault-injected transport (seeded drops, truncated frames, duplicated
// writes, delayed flushes) against a paranoid-verify server. The
// invariant: every outcome is one of two states — the client surfaces an
// error, or the ops succeeded — and in BOTH the server's board stays
// oracle-clean when re-extracted from a readback over a fresh, clean
// connection. The forbidden third state is silent success over a
// corrupted or diverged board.
func TestSessionUnderTransportFaults(t *testing.T) {
	ctx := context.Background()
	addr, srv := startDaemon(t, server.Options{ParanoidVerify: true})

	a := arch.NewVirtex()
	var faultsInjected, errorsSurfaced, completed int
	for seed := int64(1); seed <= 10; seed++ {
		devName := fmt.Sprintf("chaos%d", seed)
		if err := srv.AddDevice(devName, "virtex", 16, 24); err != nil {
			t.Fatal(err)
		}

		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fc := jbits.NewFaultConn(raw, jbits.FaultOptions{
			Seed:       seed,
			PDrop:      0.02,
			PTruncate:  0.02,
			PDuplicate: 0.02,
			PDelay:     0.10,
		})
		c := client.NewClient(fc)

		// Drive a route/unroute churn until the first transport-induced
		// error (or completion). Every individual op must report success
		// or failure — a hang would fail the test by timeout.
		opErr := func() error {
			s, err := c.Session(ctx, devName)
			if err != nil {
				return err
			}
			for i := 0; i < 12; i++ {
				src := client.Pin(core.NewPin(2+i, 3, arch.S1YQ))
				sink := client.Pin(core.NewPin(3+i, 7, arch.S0F3))
				if err := s.Route(ctx, src, sink); err != nil {
					return err
				}
				if i%3 == 2 {
					if err := s.Unroute(ctx, src); err != nil {
						return err
					}
				}
			}
			return nil
		}()
		c.Close()
		if counters := fc.Counters(); counters.Drops+counters.Truncates+counters.Duplicates > 0 {
			faultsInjected++
		}
		if opErr != nil {
			errorsSurfaced++
			t.Logf("seed %d: error surfaced: %v", seed, opErr)
		} else {
			completed++
		}

		// Whatever the faulty session saw, the server's board must be
		// oracle-clean through a fresh, clean connection.
		cc, err := client.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cc.Session(ctx, devName)
		if err != nil {
			t.Fatalf("seed %d: clean reconnect: %v", seed, err)
		}
		stream, err := cs.Readback(ctx)
		if err != nil {
			t.Fatalf("seed %d: readback: %v", seed, err)
		}
		if err := oracle.Audit(a, stream, nil, false); err != nil {
			t.Fatalf("seed %d: board not oracle-clean after faulty session (client err: %v): %v",
				seed, opErr, err)
		}
		// The clean session's freshly seeded mirror must agree.
		if err := cs.VerifyMirror(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cc.Close()
	}
	t.Logf("10 seeds: %d with terminal faults, %d errors surfaced, %d completed",
		faultsInjected, errorsSurfaced, completed)
	if faultsInjected == 0 {
		t.Fatal("fault schedule injected no terminal faults across 10 seeds; raise probabilities")
	}
	if errorsSurfaced == 0 {
		t.Fatal("no session surfaced an error despite injected faults")
	}
}

// soakFor switches TestSoak from its fixed counts to running for this long:
// `go test ./internal/server -run TestSoak -soak=2m -v` is `make soak`. The
// package comes first: go test hands everything from the first flag it
// does not know to the test binary.
var soakFor = flag.Duration("soak", 0, "run TestSoak for this long instead of a fixed number of connections")

// soakCounters aggregates what the soak observed.
type soakCounters struct {
	ops      atomic.Int64 // ops answered (success or typed error)
	opErrors atomic.Int64 // typed op-level errors
	deaths   atomic.Int64 // transport deaths survived by dialing again
	faults   atomic.Int64 // faults injected across all connections
	blasts   atomic.Int64 // garbage connections fired
}

// TestSoak runs concurrent client traffic against a live daemon over
// fault-injected transports (seeded drops, truncated frames, duplicated
// writes, delayed flushes), plus a blaster that feeds the daemon byte noise
// before and after the hello. Workers dial again after every transport
// death; no op may hang. At the end faults were injected, a transport
// death was survived, the malformed-frame filter fired, every board
// re-extracts oracle-clean with a verified mirror over a fresh connection,
// and a bounded graceful shutdown drains every session: zero stuck
// sessions. By default each worker opens a fixed number of connections and
// the blaster fires a fixed number of shots; -soak bounds both by time.
func TestSoak(t *testing.T) {
	const workers, dials, shots = 4, 6, 4
	var deadline time.Time
	if *soakFor > 0 {
		deadline = time.Now().Add(*soakFor)
	}
	more := func(count int) func(int) bool {
		if deadline.IsZero() {
			return func(n int) bool { return n < count }
		}
		return func(int) bool { return time.Now().Before(deadline) }
	}
	ctx := context.Background()
	devs := make([]string, workers)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev%d", i)
	}
	addr, srv := startDaemon(t, server.Options{}, devs...)

	var c soakCounters
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i, dev := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = soakWorker(ctx, addr, dev, int64(i), more(dials), &c)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		soakBlaster(addr, more(shots), &c)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if c.faults.Load() == 0 {
		t.Fatal("no faults injected: the fault schedule is dead and the soak proved nothing")
	}
	if c.deaths.Load() == 0 {
		t.Fatal("no transport death survived: the redial path never ran")
	}

	// Terminal audit over a fresh, clean connection: the daemon must be
	// fully responsive and every board oracle-clean.
	cc, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("post-soak dial: %v", err)
	}
	defer cc.Close()
	stats, err := cc.Stats(ctx)
	if err != nil {
		t.Fatalf("post-soak statsz: %v", err)
	}
	if stats.Wire == nil || stats.Wire.Malformed == 0 {
		t.Fatalf("garbage was blasted but the malformed filter never fired: %+v", stats.Wire)
	}
	a := arch.NewVirtex()
	for _, dev := range devs {
		s, err := cc.Session(ctx, dev)
		if err != nil {
			t.Fatalf("post-soak session %s: %v", dev, err)
		}
		stream, err := s.Readback(ctx)
		if err != nil {
			t.Fatalf("post-soak readback %s: %v", dev, err)
		}
		if err := oracle.Audit(a, stream, nil, false); err != nil {
			t.Fatalf("board %s not oracle-clean after soak: %v", dev, err)
		}
		if err := s.VerifyMirror(); err != nil {
			t.Fatalf("post-soak mirror %s: %v", dev, err)
		}
	}
	t.Logf("soak: %d ops, %d typed op errors, %d transport deaths survived, %d faults injected, %d garbage blasts, %d malformed frames filtered, %d boards oracle-clean",
		c.ops.Load(), c.opErrors.Load(), c.deaths.Load(), c.faults.Load(), c.blasts.Load(),
		stats.Wire.Malformed, len(devs))

	// Zero stuck sessions: a bounded graceful drain must succeed.
	cc.Close()
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful drain after soak (stuck sessions?): %v", err)
	}
}

// soakWorker churns one device through fault-injected connections, dialing
// again after every transport death; more(n) says whether to open
// connection n.
func soakWorker(ctx context.Context, addr, dev string, idx int64, more func(int) bool, c *soakCounters) error {
	g := workload.New(1+idx, 16, 24)
	opts := jbits.FaultOptions{PDrop: 0.01, PTruncate: 0.01, PDuplicate: 0.01, PDelay: 0.05}
	for n := 0; more(n); n++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		opts.Seed = 1 + idx*1000 + int64(n)
		fc := jbits.NewFaultConn(raw, opts)
		cc := client.NewClient(fc)
		err = func() error {
			s, err := cc.Session(ctx, dev)
			if err != nil {
				return err
			}
			churn, err := g.Churn(100, 6, 0.35)
			if err != nil {
				return err
			}
			for _, op := range churn {
				var oerr error
				if op.Route {
					oerr = s.Route(ctx, client.Pin(op.Src), client.Pin(op.Sink))
				} else {
					oerr = s.Unroute(ctx, client.Pin(op.Src))
				}
				c.ops.Add(1)
				var se *client.ServiceError
				if errors.As(oerr, &se) {
					c.opErrors.Add(1) // a board-level no: session and connection are fine
				} else if oerr != nil {
					return oerr
				}
			}
			return nil
		}()
		fcount := fc.Counters()
		c.faults.Add(int64(fcount.Drops + fcount.Truncates + fcount.Duplicates + fcount.Delays))
		cc.Close()
		if err != nil {
			c.deaths.Add(1)
		}
	}
	return nil
}

// soakBlaster fires garbage at the daemon: byte noise on fresh
// connections, and on every other shot noise after a legitimate hello, so
// the v3 pre-parse filter's rejection path runs before and after a hello;
// more(n) says whether to fire shot n.
func soakBlaster(addr string, more func(int) bool, c *soakCounters) {
	rng := rand.New(rand.NewSource(7777))
	for shot := 0; more(shot); shot++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		if shot%2 == 1 {
			cc := client.NewClient(conn)
			if cc.Hello(context.Background()) != nil {
				cc.Close()
				continue
			}
		}
		junk := make([]byte, 16+rng.Intn(256))
		rng.Read(junk)
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = conn.Write(junk)
		// Drain whatever error response comes back; the server must close.
		buf := make([]byte, 512)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
		c.blasts.Add(1)
		time.Sleep(50 * time.Millisecond)
	}
}
