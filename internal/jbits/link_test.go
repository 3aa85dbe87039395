package jbits

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/arch"
)

// countingConn counts the Writes one end of a link makes and the Reads
// that returned bytes, so a read still waiting for the next frame does not
// count.
type countingConn struct {
	net.Conn
	mu            sync.Mutex
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.reads++
		c.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) counts() (reads, writes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes
}

// TestFrameCostsOneWriteOneRead: on both ends of an XHWIF link a frame
// under linkBuf — a partial configuration, its answer, a stats call and
// its counters — is one Write, and its header and payload are one Read.
// The transport is net.Pipe, where a Read returns at most what one Write
// sent, so every count is exact.
func TestFrameCostsOneWriteOneRead(t *testing.T) {
	a := arch.NewVirtex()
	s, err := NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	board, err := NewBoard("link", a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	hostEnd, boardEnd := net.Pipe()
	hc, bc := &countingConn{Conn: hostEnd}, &countingConn{Conn: boardEnd}
	done := make(chan error, 1)
	go func() { done <- Serve(bc, board) }()
	t.Cleanup(func() { hostEnd.Close() })
	rb := Dial(hc)
	if _, err := s.SyncFull(rb); err != nil { // a full configuration is larger than the buffer
		t.Fatal(err)
	}
	if back, err := rb.Readback(); err != nil {
		t.Fatal(err)
	} else if want, _ := s.Dev.FullConfig(); !bytes.Equal(back, want) {
		t.Fatal("remote readback differs from the session's configuration")
	}
	br0, bw0 := bc.counts()
	hr0, hw0 := hc.counts()
	frames := 0
	for i := 0; i < 8; i++ {
		s.Set(2+i, 3, arch.S1YQ, arch.Out(1), true)
		if n, err := s.SyncPartial(rb); err != nil || n == 0 {
			t.Fatalf("partial sync: %d frames, %v", n, err)
		}
		if _, err := rb.Stats(); err != nil {
			t.Fatal(err)
		}
		frames += 2
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	frames++
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	br, bw := bc.counts()
	hr, hw := hc.counts()
	for _, c := range []struct {
		what string
		got  int
	}{
		{"host Writes", hw - hw0}, {"board Reads", br - br0},
		{"board Writes", bw - bw0}, {"host Reads", hr - hr0},
	} {
		if c.got != frames {
			t.Errorf("%d %s for %d frames each way, want one each", c.got, c.what, frames)
		}
	}
}
