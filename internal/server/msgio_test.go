package server_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// countingConn counts the Reads and Writes one end of a connection makes,
// and how many of its Reads are in progress.
type countingConn struct {
	net.Conn
	mu            sync.Mutex
	reads, writes int
	reading       int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.reading++
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reading--
	c.mu.Unlock()
	return n, err
}

// awaitRead waits until a Read is in progress on c. On a server's end,
// once it has answered every request sent, that is the read that waits for
// the next one.
func (c *countingConn) awaitRead(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		c.mu.Lock()
		reading := c.reading > 0
		c.mu.Unlock()
		if reading {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the server did not read again within 10 s")
		}
	}
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

// TestMessageCostsOneWriteOneRead: on both ends of a connection a message
// under v3.BufSize — a request, or a response with its dirty frames — is
// one Write, and its header and payload are one Read. The transport is
// net.Pipe, where a Read returns at most what one Write sent, so every
// count is exact.
func TestMessageCostsOneWriteOneRead(t *testing.T) {
	srv := server.NewServer()
	if err := srv.AddDevice("dev", "virtex", 16, 24); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	cliEnd, srvEnd := net.Pipe()
	sc, cc := &countingConn{Conn: srvEnd}, &countingConn{Conn: cliEnd}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(sc) }()

	ctx := context.Background()
	c := client.NewClient(cc)
	s, err := c.Session(ctx, "dev") // the connect's full configuration is larger than the buffer
	if err != nil {
		t.Fatal(err)
	}
	// The server reads on as soon as it has answered, and its count is
	// taken only once it has: otherwise that read could fall after the
	// baseline under load, and the window hold one read too many.
	sc.awaitRead(t)
	sr0, sw0 := sc.counts()
	cr0, cw0 := cc.counts()
	const nets = 8
	msgs := 0
	for i := 0; i < nets; i++ {
		src := client.Pin(core.NewPin(1+i, 2, arch.S1YQ))
		if err := s.Route(ctx, src, client.Pin(core.NewPin(1+i, 6, arch.S0F1)), client.Pin(core.NewPin(1+i, 9, arch.S1F2))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Trace(ctx, src); err != nil {
			t.Fatal(err)
		}
		if err := s.Unroute(ctx, src); err != nil {
			t.Fatal(err)
		}
		msgs += 3
	}
	if s.FramesApplied == 0 {
		t.Fatal("no frames were pushed: the responses carried no raw tail")
	}
	sr, sw := sc.counts()
	cr, cw := cc.counts()
	if got := cw - cw0; got != msgs {
		t.Errorf("client: %d Writes for %d requests, want one each", got, msgs)
	}
	if got := sw - sw0; got != msgs {
		t.Errorf("server: %d Writes for %d responses, want one each", got, msgs)
	}
	// The server's count includes the read that waits for the next request.
	if got := sr - sr0; got > msgs {
		t.Errorf("server: %d Reads for %d requests, want at most one each", got, msgs)
	}
	if got := cr - cr0; got > msgs {
		t.Errorf("client: %d Reads for %d responses, want at most one each", got, msgs)
	}
	c.Close()
	<-done
}
