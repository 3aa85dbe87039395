package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

func testPin(r, c int, w arch.Wire) server.EndPointMsg {
	return server.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
}

// newTestWorker builds a bare worker (no daemon, no wire) for queue-level
// context semantics.
func newTestWorker(t *testing.T, opts server.Options) *server.Worker {
	t.Helper()
	w, err := server.NewWorker(server.WorkerConfig{Name: "w", Rows: 16, Cols: 24, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		<-w.Done()
	})
	return w
}

// jam occupies the worker goroutine until the returned release func is
// called.
func jam(t *testing.T, w *server.Worker) (release func()) {
	t.Helper()
	started := make(chan struct{})
	block := make(chan struct{})
	go func() {
		_ = w.Do(context.Background(), func(*core.Router, *jbits.Session) error {
			close(started)
			<-block
			return nil
		})
	}()
	<-started
	return func() { close(block) }
}

// fill occupies one queue slot with a no-op task. The wait for that task
// is registered as a cleanup so its enqueue finishes before the worker
// closes its queue.
func fill(t *testing.T, w *server.Worker) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Do(context.Background(), func(*core.Router, *jbits.Session) error { return nil })
	}()
	t.Cleanup(func() { <-done })
	time.Sleep(10 * time.Millisecond)
}

// TestSubmitCanceledWhileWaitingForQueueSlot: with the queue full, a
// Submit blocked on the enqueue wait is released by context cancellation
// with the typed canceled code — it neither busy-waits the full enqueue
// timeout nor executes.
func TestSubmitCanceledWhileWaitingForQueueSlot(t *testing.T) {
	w := newTestWorker(t, server.Options{QueueDepth: 1})
	release := jam(t, w)
	defer release()
	fill(t, w)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	src := testPin(5, 7, arch.S1YQ)
	resp := w.Submit(ctx, &server.Request{Op: "route", Source: &src,
		Sinks: []server.EndPointMsg{testPin(6, 8, arch.S0F3)}})
	if resp.ErrorCode != protocol.CodeCanceled {
		t.Fatalf("code = %q (err %q), want %q", resp.ErrorCode, resp.Err, protocol.CodeCanceled)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancellation took %v — Submit sat out the enqueue timeout", waited)
	}
}

// TestSubmitDeadlineWhileWaitingForQueueSlot: same, for an expiring
// deadline — the typed deadline code, well before the enqueue timeout.
func TestSubmitDeadlineWhileWaitingForQueueSlot(t *testing.T) {
	w := newTestWorker(t, server.Options{QueueDepth: 1})
	release := jam(t, w)
	defer release()
	fill(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	src := testPin(5, 7, arch.S1YQ)
	resp := w.Submit(ctx, &server.Request{Op: "route", Source: &src,
		Sinks: []server.EndPointMsg{testPin(6, 8, arch.S0F3)}})
	if resp.ErrorCode != protocol.CodeDeadline {
		t.Fatalf("code = %q (err %q), want %q", resp.ErrorCode, resp.Err, protocol.CodeDeadline)
	}
}

// TestQueuedOpSkippedWhenContextDies: an op that made it into the queue but
// whose context died before the worker reached it is rejected at dequeue —
// it must NOT execute late.
func TestQueuedOpSkippedWhenContextDies(t *testing.T) {
	w := newTestWorker(t, server.Options{QueueDepth: 4})
	release := jam(t, w)

	ctx, cancel := context.WithCancel(context.Background())
	src := testPin(5, 7, arch.S1YQ)
	respCh := make(chan *server.Response, 1)
	go func() {
		respCh <- w.Submit(ctx, &server.Request{Op: "route", Source: &src,
			Sinks: []server.EndPointMsg{testPin(6, 8, arch.S0F3)}})
	}()
	time.Sleep(10 * time.Millisecond) // op is queued behind the jam
	cancel()
	resp := <-respCh
	if resp.ErrorCode != protocol.CodeCanceled {
		t.Fatalf("code = %q, want %q", resp.ErrorCode, protocol.CodeCanceled)
	}
	release()

	// The canceled route must not have executed.
	tr := w.Submit(context.Background(), &server.Request{Op: "trace", Source: &src})
	if tr.Err != "" {
		t.Fatal(tr.Err)
	}
	if len(tr.Net.Pips) != 0 || len(tr.Net.Sinks) != 0 {
		t.Fatalf("canceled op executed anyway: %+v", tr.Net)
	}
}

// TestEveryRPCHonorsCancellation: the whole client surface returns a
// context error for a dead context instead of touching the wire.
func TestEveryRPCHonorsCancellation(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "dev")
	c, err := client.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Session(context.Background(), "dev")
	if err != nil {
		t.Fatal(err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	src := testPin(5, 7, arch.S1YQ)
	k := uint64(3)
	rpcs := map[string]func(context.Context) error{
		"route": func(ctx context.Context) error { return s.Route(ctx, src, testPin(6, 8, arch.S0F3)) },
		"bus": func(ctx context.Context) error {
			return s.RouteBus(ctx, []server.EndPointMsg{src}, []server.EndPointMsg{testPin(6, 8, arch.S0F3)})
		},
		"bus_batch": func(ctx context.Context) error {
			return s.RouteBusBatch(ctx, []server.EndPointMsg{src}, []server.EndPointMsg{testPin(6, 8, arch.S0F3)})
		},
		"batch": func(ctx context.Context) error {
			return s.RouteBatch(ctx, []protocol.NetMsg{{Source: src, Sinks: []server.EndPointMsg{testPin(6, 8, arch.S0F3)}}})
		},
		"unroute":         func(ctx context.Context) error { return s.Unroute(ctx, src) },
		"reverse_unroute": func(ctx context.Context) error { return s.ReverseUnroute(ctx, testPin(6, 8, arch.S0F3)) },
		"trace":           func(ctx context.Context) error { _, err := s.Trace(ctx, src); return err },
		"reverse_trace":   func(ctx context.Context) error { _, err := s.ReverseTrace(ctx, testPin(6, 8, arch.S0F3)); return err },
		"core_new": func(ctx context.Context) error {
			return s.NewCore(ctx, protocol.CoreMsg{Name: "m", Kind: "constmul", Row: 4, Col: 10, K: &k, KBits: 2})
		},
		"core_replace": func(ctx context.Context) error {
			return s.ReplaceCore(ctx, protocol.CoreMsg{Name: "m", Row: 5, Col: 10})
		},
		"readback": func(ctx context.Context) error { _, err := s.Readback(ctx); return err },
		"devices":  func(ctx context.Context) error { _, err := c.Devices(ctx); return err },
		"statsz":   func(ctx context.Context) error { _, err := c.Stats(ctx); return err },
		"connect":  func(ctx context.Context) error { _, err := c.Session(ctx, "dev"); return err },
	}
	for name, rpc := range rpcs {
		if err := rpc(dead); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with dead context: err = %v, want context.Canceled", name, err)
		}
	}
	// The session and connection survive all those rejections.
	if err := s.Route(context.Background(), src, testPin(6, 8, arch.S0F3)); err != nil {
		t.Fatalf("session dead after canceled RPCs: %v", err)
	}
}

// rawCall sends one v3 request frame and decodes the response, bypassing
// the client.
func rawCall(t *testing.T, conn net.Conn, req *server.Request) *server.Response {
	t.Helper()
	frame, err := v3.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return readV3(t, conn)
}

// expectClosed fails unless the server has closed the connection: EOF, or
// a reset when the server closed with bytes of the refused frame unread.
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Errorf("%s: connection still open after the response (read: %v)", what, err)
	}
}

// TestHelloRequired: a client that never sends hello gets one clear typed
// version error, answered by id, and a closed connection, not undefined
// behavior; after a proper hello the same raw connection style is served.
func TestHelloRequired(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "dev")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := rawCall(t, conn, &server.Request{ID: 1, Op: "devices"})
	if resp.ErrorCode != protocol.CodeVersion || resp.ID != 1 {
		t.Fatalf("op before hello: code %q id %d err %q, want %q id 1", resp.ErrorCode, resp.ID, resp.Err, protocol.CodeVersion)
	}
	expectClosed(t, conn, "op before hello")

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rawHello(t, conn2)
	resp = rawCall(t, conn2, &server.Request{ID: 3, Op: "devices"})
	if resp.Err != "" || resp.ID != 3 || len(resp.Devices) != 1 {
		t.Fatalf("devices after hello: %+v", resp)
	}
}

// TestHelloVersionMismatch: a hello at another version byte is rejected
// with the typed code, and the connection is closed.
func TestHelloVersionMismatch(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "dev")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := v3.AppendRequest(nil, &server.Request{ID: 1, Op: "hello", Hello: &protocol.HelloMsg{}})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = v3.Version - 1
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if resp := readV3(t, conn); resp.ErrorCode != protocol.CodeVersion {
		t.Fatalf("v2 hello: code %q, want %q", resp.ErrorCode, protocol.CodeVersion)
	}
	expectClosed(t, conn, "rejected hello")
}

// TestClientSurfacesVersionMismatch: the typed sentinel comes through the
// client error chain, whether the server refuses the hello in v3 or
// answers it outside v3, as a server of the earlier framing would.
func TestClientSurfacesVersionMismatch(t *testing.T) {
	refusals := map[string]func(conn net.Conn, h v3.Header) error{
		"v3 refusal": func(conn net.Conn, h v3.Header) error {
			head, _, err := v3.AppendResponse(nil, h.Op, &server.Response{ID: h.ID, ErrorCode: protocol.CodeVersion,
				Err: "server: protocol version mismatch"})
			if err == nil {
				_, err = conn.Write(head)
			}
			return err
		},
		"framed JSON": func(conn net.Conn, h v3.Header) error {
			out, _ := json.Marshal(map[string]any{"id": h.ID, "code": protocol.CodeBadRequest,
				"err": "server: unknown opcode 0x4a"})
			return jbits.WriteFrame(conn, 0x10|jbits.RespFlag, out)
		},
	}
	for name, refuse := range refusals {
		t.Run(name, func(t *testing.T) {
			// A fake daemon that refuses every request.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var hdr [v3.HeaderSize]byte
				for {
					h, err := v3.ReadHeader(conn, &hdr)
					if err != nil {
						return
					}
					if _, err := v3.ReadPayloadInto(conn, h, nil); err != nil || refuse(conn, h) != nil {
						return
					}
				}
			}()
			_, err = client.Dial(context.Background(), ln.Addr().String())
			if !errors.Is(err, client.ErrVersionMismatch) {
				t.Fatalf("err = %v, want ErrVersionMismatch", err)
			}
		})
	}
}
