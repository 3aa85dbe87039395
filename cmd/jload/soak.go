// The soak harness: jload -soak <duration> runs continuous client traffic
// against a live daemon over fault-injected transports (seeded drops,
// truncated frames, duplicated writes, delayed flushes — jbits.FaultConn),
// plus a garbage blaster that feeds the daemon byte noise before and after
// the hello. Workers redial and resume on
// every transport death; no op may hang. At the end the daemon must still
// be fully responsive, every board must re-extract oracle-clean over a
// fresh connection, the malformed-frame filter must have fired, and (for
// an in-process daemon) a bounded graceful shutdown must drain every
// session — the zero-stuck-sessions check.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// soakCounters aggregates what the soak observed.
type soakCounters struct {
	ops       atomic.Int64 // ops acknowledged (success or typed error)
	redials   atomic.Int64 // transport deaths survived by redialing
	faults    atomic.Int64 // faults injected across all conns
	blasts    atomic.Int64 // garbage connections fired
	opErrors  atomic.Int64 // typed op-level errors (not transport)
	transport atomic.Int64 // transport-level errors surfaced
}

// soakWorker churns one device through fault-injected connections until
// the deadline, redialing on every transport death.
func soakWorker(ctx context.Context, addr, dev string, idx int, seed int64,
	rows, cols int, deadline time.Time, c *soakCounters) error {
	g := workload.New(seed+int64(idx), rows, cols)
	opts := jbits.FaultOptions{
		PDrop:      0.01,
		PTruncate:  0.01,
		PDuplicate: 0.01,
		PDelay:     0.05,
	}
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		opts.Seed = seed + int64(idx)*1000 + int64(attempt)
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
			failed := map[int]bool{}
			for i, op := range churn {
				if time.Now().After(deadline) {
					return nil
				}
				var oerr error
				if op.Route {
					oerr = s.Route(ctx, client.Pin(op.Src), client.Pin(op.Sink))
					if oerr != nil {
						failed[i] = true
					}
				} else {
					oerr = s.Unroute(ctx, client.Pin(op.Src))
				}
				c.ops.Add(1)
				if oerr != nil {
					if isTypedErr(oerr) {
						c.opErrors.Add(1)
						continue // board-level no; session and conn are fine
					}
					return oerr // transport death: redial
				}
			}
			return nil
		}()
		fcount := fc.Counters()
		c.faults.Add(int64(fcount.Drops + fcount.Truncates + fcount.Duplicates + fcount.Delays))
		cc.Close()
		if err != nil {
			c.transport.Add(1)
			c.redials.Add(1)
			continue
		}
		// Clean pass: reconnect anyway so connection setup/teardown soaks too.
	}
	return nil
}

// isTypedErr reports whether the error is an in-protocol (typed) response
// rather than a transport failure — the session survives those.
func isTypedErr(err error) bool {
	var se *client.ServiceError
	return errors.As(err, &se)
}

// soakBlaster fires garbage at the daemon: raw byte noise on fresh
// connections, and (every other shot) noise injected after a legitimate
// hello — exercising both the handshake's and the v3 pre-parse filter's
// rejection paths.
func soakBlaster(addr string, seed int64, deadline time.Time, c *soakCounters) {
	rng := rand.New(rand.NewSource(seed))
	for shot := 0; time.Now().Before(deadline); shot++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		if shot%2 == 1 {
			// Legitimate hello, then garbage in v3 framing position.
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

// runSoak is the entry point for jload -soak. srv is non-nil for -inproc
// runs, enabling the graceful-drain check at the end.
func runSoak(addr string, srv *server.Server, sessions, rows, cols int, seed int64, dur time.Duration) error {
	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var c soakCounters

	log.Printf("soak: %v of fault-injected traffic (%d workers) against %s", dur, sessions, addr)
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = soakWorker(ctx, addr, fmt.Sprintf("dev%d", i), i, seed, rows, cols, deadline, &c)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		soakBlaster(addr, seed+7777, deadline, &c)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	fmt.Printf("soak: %d ops, %d typed op errors, %d transport deaths survived (%d redials), %d faults injected, %d garbage blasts\n",
		c.ops.Load(), c.opErrors.Load(), c.transport.Load(), c.redials.Load(), c.faults.Load(), c.blasts.Load())
	if c.faults.Load() == 0 {
		return errors.New("no faults injected — fault schedule dead, soak proved nothing")
	}
	if c.transport.Load() == 0 {
		return errors.New("no transport death survived — redial path never exercised")
	}

	// Terminal audit over a fresh, clean connection: the daemon must be
	// fully responsive and every board oracle-clean.
	cc, err := client.Dial(ctx, addr)
	if err != nil {
		return fmt.Errorf("post-soak dial: %w", err)
	}
	defer cc.Close()
	stats, err := cc.Stats(ctx)
	if err != nil {
		return fmt.Errorf("post-soak statsz: %w", err)
	}
	if stats.Wire != nil {
		fmt.Printf("soak: wire stats: %d conns, %d malformed frames filtered\n",
			stats.Wire.Conns, stats.Wire.Malformed)
		if c.blasts.Load() > 0 && stats.Wire.Malformed == 0 {
			return errors.New("garbage was blasted but the malformed filter never fired")
		}
	}
	a := arch.NewVirtex()
	audits := 0
	for i := 0; i < sessions; i++ {
		s, err := cc.Session(ctx, fmt.Sprintf("dev%d", i))
		if err != nil {
			return fmt.Errorf("post-soak session dev%d: %w", i, err)
		}
		stream, err := s.Readback(ctx)
		if err != nil {
			return fmt.Errorf("post-soak readback dev%d: %w", i, err)
		}
		if err := oracle.Audit(a, stream, nil, false); err != nil {
			return fmt.Errorf("board dev%d not oracle-clean after soak: %w", i, err)
		}
		if err := s.VerifyMirror(); err != nil {
			return fmt.Errorf("post-soak mirror dev%d: %w", i, err)
		}
		audits++
	}
	fmt.Printf("soak: %d boards oracle-clean after %d ops under faults\n", audits, c.ops.Load())

	// Zero stuck sessions: a bounded graceful drain must succeed. Only
	// possible for the in-process daemon; for -addr the responsiveness and
	// oracle checks above are the terminal gate.
	if srv != nil {
		cc.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("graceful drain after soak (stuck sessions?): %w", err)
		}
		fmt.Println("soak: daemon drained cleanly, zero stuck sessions")
	}
	return nil
}
