package jbits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/arch"
)

// startServer runs Serve over an in-memory duplex pipe and returns the
// client end plus a done channel.
func startServer(t *testing.T, b *Board) (*RemoteBoard, chan error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(server, b)
		server.Close()
	}()
	t.Cleanup(func() { client.Close() })
	return Dial(client), done
}

func TestRemoteConfigureAndReadback(t *testing.T) {
	a := arch.NewVirtex()
	s, err := NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	board, err := NewBoard("remote", a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	rb, done := startServer(t, board)

	s.Set(5, 7, arch.S1YQ, arch.Out(1), true)
	s.SetLUT(6, 8, 0, 0xBEEF)

	if _, err := s.SyncFull(rb); err != nil {
		t.Fatalf("full remote sync: %v", err)
	}
	back, err := rb.Readback()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := s.Dev.FullConfig(); !bytes.Equal(back, want) {
		t.Error("remote readback differs from the session's configuration")
	}
	if !board.Device().PIPIsOn(5, 7, arch.S1YQ, arch.Out(1)) {
		t.Error("board missing PIP after remote configure")
	}
	if v, used := board.Device().GetLUT(6, 8, 0); !used || v != 0xBEEF {
		t.Errorf("board LUT = %#x, %v", v, used)
	}

	// Partial step over the wire.
	s.Set(5, 7, arch.Out(1), s.Dev.A.Single(arch.East, 5), true)
	frames, err := s.SyncPartial(rb)
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 || frames > 10 {
		t.Errorf("partial remote sync shipped %d frames", frames)
	}

	// Stats round trip, with the partial-vs-full split.
	c, err := rb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if c.Configurations != 2 || c.BytesWritten == 0 {
		t.Errorf("stats = %+v", c)
	}
	if c.FullConfigs != 1 || c.PartialConfigs != 1 {
		t.Errorf("full/partial split = %d/%d, want 1/1", c.FullConfigs, c.PartialConfigs)
	}
	if c.FramesWritten == 0 {
		t.Error("board counted no frames written")
	}

	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server exited with %v", err)
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("remote", a, 12, 12) // different geometry
	if err != nil {
		t.Fatal(err)
	}
	rb, done := startServer(t, board)
	s, err := NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := s.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-geometry stream: the server must answer with an error frame,
	// not die.
	if err := rb.Configure(stream); err == nil {
		t.Error("wrong-geometry stream accepted remotely")
	}
	// The connection is still usable afterwards.
	if _, err := rb.Stats(); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestServeStopsOnEOF(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("remote", a, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(server, board) }()
	client.Close()
	if err := <-done; err == nil || err.Error() != "io: read/write on closed pipe" {
		// net.Pipe returns io.ErrClosedPipe rather than EOF; both are
		// acceptable terminations, anything else is not.
		if err != nil && err.Error() != "EOF" {
			t.Logf("server exit: %v (accepted)", err)
		}
	}
}

// TestServeRejectsOversizedFrame: a header promising more than the frame
// limit must terminate the Serve loop with an error, not allocate.
func TestServeRejectsOversizedFrame(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("remote", a, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(server, board) }()
	var hdr [5]byte
	hdr[0] = opConfigure
	binary.BigEndian.PutUint32(hdr[1:], uint32(maxFramePayld+1))
	if _, err := client.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	serveErr := <-done
	if serveErr == nil {
		t.Fatal("oversized frame accepted")
	}
	client.Close()
}

// TestServeUnknownOpcode: an unknown opcode gets an error frame and the
// connection stays alive for subsequent requests.
func TestServeUnknownOpcode(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("remote", a, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(server, board) }()
	t.Cleanup(func() { client.Close() })
	if err := WriteFrame(client, 0x55, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := ReadFrame(client)
	if err != nil {
		t.Fatal(err)
	}
	if op != opError|respFlag {
		t.Fatalf("response opcode %#x, want error", op)
	}
	if len(payload) == 0 {
		t.Error("error frame has no message")
	}
	// The loop must still serve afterwards.
	rb := Dial(client)
	if _, err := rb.Stats(); err != nil {
		t.Fatalf("connection dead after unknown opcode: %v", err)
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server exit: %v", err)
	}
}

// TestServeMidFrameFailure: the transport dies mid-payload; Serve must
// return the read error rather than hang or misparse.
func TestServeMidFrameFailure(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("remote", a, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(server, board) }()
	var hdr [5]byte
	hdr[0] = opConfigure
	binary.BigEndian.PutUint32(hdr[1:], 100)
	if _, err := client.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	serveErr := <-done
	if serveErr == nil {
		t.Fatal("mid-frame failure not surfaced")
	}
	if !errors.Is(serveErr, io.ErrUnexpectedEOF) && !errors.Is(serveErr, io.ErrClosedPipe) {
		t.Logf("serve exit: %v (accepted non-hang failure)", serveErr)
	}
}

// TestConcurrentRemoteClientsTCP drives one Board from two RemoteBoard
// clients over real TCP connections concurrently — the shared-board case
// the Board mutex exists for. Run under -race this doubles as the
// locking proof.
func TestConcurrentRemoteClientsTCP(t *testing.T) {
	a := arch.NewVirtex()
	board, err := NewBoard("shared", a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var srvWG sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srvWG.Add(1)
			go func() {
				defer srvWG.Done()
				defer conn.Close()
				_ = Serve(conn, board)
			}()
		}
	}()

	const perClient = 8
	var cliWG sync.WaitGroup
	errs := make(chan error, 2*perClient)
	for i := 0; i < 2; i++ {
		cliWG.Add(1)
		go func(seed int) {
			defer cliWG.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rb := Dial(conn)
			s, err := NewSession(a, 16, 24)
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < perClient; k++ {
				s.SetLUT(seed*4, 2*k, seed, uint16(0x1000*seed+k))
				if _, err := s.SyncPartial(rb); err != nil {
					errs <- err
					return
				}
				if _, err := rb.Stats(); err != nil {
					errs <- err
					return
				}
			}
			if err := rb.Close(); err != nil {
				errs <- err
			}
		}(i + 1)
	}
	cliWG.Wait()
	ln.Close()
	srvWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := board.Counters()
	if c.Configurations != 2*perClient || c.PartialConfigs != 2*perClient {
		t.Errorf("board saw %d configurations (%d partial), want %d",
			c.Configurations, c.PartialConfigs, 2*perClient)
	}
	if c.FramesWritten == 0 {
		t.Error("no frames counted")
	}
}

// countingWriter records the size of every Write it is handed.
type countingWriter struct{ writes []int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return len(p), nil
}

// TestWriteFrameOneWrite holds WriteFrame to one Write per frame, header and
// payload together, and an empty payload to its header alone: never a
// zero-length Write, which blocks on net.Pipe.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, payload := range [][]byte{[]byte("x"), make([]byte, 70000), nil} {
		var cw countingWriter
		if err := WriteFrame(&cw, opPartial, payload); err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != 1 || cw.writes[0] != 5+len(payload) {
			t.Errorf("%d-byte payload: writes %v, want one of %d bytes", len(payload), cw.writes, 5+len(payload))
		}
	}
}
