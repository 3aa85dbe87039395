package jbits

import (
	"io"
	"math/rand"
	"sync"
)

// FaultOptions configure seeded fault injection on a transport. Each
// probability is rolled independently per Write, in a fixed order (drop,
// truncate, duplicate, delay), so a given seed reproduces the same fault
// schedule for the same write sequence.
type FaultOptions struct {
	Seed int64
	// PDrop: the write is discarded entirely and the underlying
	// connection is closed — the peer sees the stream end mid-protocol.
	PDrop float64
	// PTruncate: only a prefix of the write reaches the wire, then the
	// connection is closed — the writer gets io.ErrShortWrite and the
	// peer's next ReadFrame must report ErrShortFrame, not hang or succeed.
	PTruncate float64
	// PDuplicate: the bytes are written twice — a retransmission bug; the
	// peer sees a protocol desync (e.g. a duplicated response frame).
	PDuplicate float64
	// PDelay: the bytes are buffered and flushed at the start of the next
	// Write or Read instead of immediately — a delayed flush. Modeled
	// this way (rather than with timers) so request/response transports
	// like net.Pipe cannot deadlock waiting for bytes that a sleeping
	// goroutine holds.
	PDelay float64
}

// FaultCounters report how many faults of each kind a FaultConn injected.
type FaultCounters struct {
	Writes     int
	Drops      int
	Truncates  int
	Duplicates int
	Delays     int
}

// FaultConn wraps a transport with seeded fault injection on the write
// path (reads pass through, apart from flushing delayed bytes first). Once
// a terminal fault (drop or truncate) fires, the connection is closed and
// every later operation fails — faulty hardware links do not heal
// mid-session, and the session code under test must fail loudly rather
// than resynchronize silently.
type FaultConn struct {
	mu       sync.Mutex
	conn     io.ReadWriter
	opts     FaultOptions
	rng      *rand.Rand
	counters FaultCounters
	pending  []byte // bytes held back by a delay fault
	dead     bool
}

// NewFaultConn wraps conn with seeded fault injection.
func NewFaultConn(conn io.ReadWriter, opts FaultOptions) *FaultConn {
	return &FaultConn{conn: conn, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Counters returns a snapshot of the injected-fault counts.
func (f *FaultConn) Counters() FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counters
}

// closeUnderlying closes the wrapped transport if it supports closing, so
// a peer blocked in a read observes the failure instead of hanging.
func (f *FaultConn) closeUnderlying() {
	f.dead = true
	if c, ok := f.conn.(io.Closer); ok {
		c.Close()
	}
}

// flushPendingLocked writes any delayed bytes through. Called with f.mu
// held.
func (f *FaultConn) flushPendingLocked() error {
	if len(f.pending) == 0 {
		return nil
	}
	p := f.pending
	f.pending = nil
	_, err := f.conn.Write(p)
	return err
}

// Write applies the fault schedule to one write.
func (f *FaultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, io.ErrClosedPipe
	}
	f.counters.Writes++
	// Roll the fault dice in a fixed order so the schedule is a pure
	// function of (seed, write index).
	roll := func(prob float64) bool { return prob > 0 && f.rng.Float64() < prob }
	drop := roll(f.opts.PDrop)
	truncate := roll(f.opts.PTruncate)
	duplicate := roll(f.opts.PDuplicate)
	delay := roll(f.opts.PDelay)

	switch {
	case drop:
		f.counters.Drops++
		f.closeUnderlying()
		// Report success: a dropped write is invisible to the sender —
		// the failure must be discovered end-to-end, not locally.
		return len(p), nil
	case truncate:
		f.counters.Truncates++
		if err := f.flushPendingLocked(); err != nil {
			return 0, err
		}
		n := len(p) / 2
		if n > 0 {
			if _, err := f.conn.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		f.closeUnderlying()
		// A short write owes its writer an error (io.Writer).
		return n, io.ErrShortWrite
	case duplicate:
		f.counters.Duplicates++
		if err := f.flushPendingLocked(); err != nil {
			return 0, err
		}
		if _, err := f.conn.Write(p); err != nil {
			return 0, err
		}
		if _, err := f.conn.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	case delay:
		f.counters.Delays++
		f.pending = append(f.pending, p...)
		return len(p), nil
	default:
		if err := f.flushPendingLocked(); err != nil {
			return 0, err
		}
		n, err := f.conn.Write(p)
		if err == nil && n < len(p) {
			return n, io.ErrShortWrite
		}
		return n, err
	}
}

// Read flushes any delayed writes (the peer may be waiting on them to
// answer) and then reads from the transport.
func (f *FaultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	if err := f.flushPendingLocked(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	conn := f.conn
	f.mu.Unlock()
	// Read without holding the lock: a blocking read must not prevent
	// concurrent writes (and their fault rolls) on the same connection.
	return conn.Read(p)
}

// Close closes the wrapped transport.
func (f *FaultConn) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = true
	if c, ok := f.conn.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
