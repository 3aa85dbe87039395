package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/server"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// fakeServer speaks just enough of the protocol — a hello first, then v3
// frames — to drive a Session through an epoch-bump resync: connect, one
// mutating op that bumps the epoch, then scripted readback responses. It
// lets the tests inject transient failures on exactly the resync path.
type fakeServer struct {
	conn      net.Conn
	config    []byte // full config served on connect and readback
	rows      int
	cols      int
	readbacks int             // readback ops seen
	script    []protocol.Code // per-readback error codes (CodeOK = succeed)
	done      chan struct{}
}

func startFake(t *testing.T, script []protocol.Code) (*fakeServer, net.Conn) {
	t.Helper()
	const rows, cols = 12, 12
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	cfg, err := d.FullConfig()
	if err != nil {
		t.Fatalf("FullConfig: %v", err)
	}
	srv, cli := net.Pipe()
	f := &fakeServer{conn: srv, config: cfg, rows: rows, cols: cols,
		script: script, done: make(chan struct{})}
	go f.serve()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		<-f.done
	})
	return f, cli
}

func (f *fakeServer) serve() {
	defer close(f.done)
	var hdr [v3.HeaderSize]byte
	for first := true; ; first = false {
		h, err := v3.ReadHeader(f.conn, &hdr)
		if err != nil {
			return
		}
		payload, err := v3.ReadPayloadInto(f.conn, h, nil)
		if err != nil {
			return
		}
		var req server.Request
		if v3.DecodeRequest(h, payload, &req, nil) != nil || first != (req.Op == "hello") {
			return // a hello first, and only first
		}
		resp := &server.Response{ID: req.ID}
		switch req.Op {
		case "hello":
			resp.Hello = &protocol.HelloMsg{Layouts: arch.Layouts()}
		case "connect":
			resp.Arch = "virtex"
			resp.Rows, resp.Cols = f.rows, f.cols
			resp.Config = f.config
			resp.Board, resp.Epoch = "b0", 1
		case "route":
			// The op succeeded but the session failed over under it: the
			// epoch the response rides is newer than the one the session
			// holds, which must trigger a mirror resync.
			resp.Board, resp.Epoch = "b1", 2
		case "readback":
			code := protocol.CodeOK
			if f.readbacks < len(f.script) {
				code = f.script[f.readbacks]
			}
			f.readbacks++
			if code != protocol.CodeOK {
				resp.ErrorCode = code
				resp.Err = "fake: injected " + code.String()
			} else {
				resp.Config = f.config
				resp.Board, resp.Epoch = "b1", 2
			}
		default:
			resp.ErrorCode = protocol.CodeUnknownOp
			resp.Err = "fake: unknown op " + req.Op
		}
		head, raw, err := v3.AppendResponse(nil, h.Op, resp)
		if err != nil {
			return
		}
		if _, err := f.conn.Write(append(head, raw...)); err != nil {
			return
		}
	}
}

func pinAt(row, col, w int) core.Pin { return core.NewPin(row, col, arch.Wire(w)) }

func openFakeSession(t *testing.T, cli net.Conn) *Session {
	t.Helper()
	c := NewClient(cli)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := c.Session(ctx, "dev")
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	return s
}

// TestResyncRetriesTransient proves the epoch-bump resync survives
// transient rejections: the first two readbacks answer failover/busy (a
// drain or failover still settling) and only the third succeeds. Before the
// backoff retry this failed the op on the first transient error.
func TestResyncRetriesTransient(t *testing.T) {
	f, cli := startFake(t, []protocol.Code{protocol.CodeFailover, protocol.CodeBusy, protocol.CodeOK})
	s := openFakeSession(t, cli)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	src := Pin(pinAt(1, 1, 0))
	sink := Pin(pinAt(2, 2, 0))
	if err := s.Route(ctx, src, sink); err != nil {
		t.Fatalf("Route across epoch bump: %v", err)
	}
	if s.Resyncs != 1 {
		t.Errorf("Resyncs = %d, want 1", s.Resyncs)
	}
	if s.Epoch != 2 || s.Board != "b1" {
		t.Errorf("session at epoch %d board %q, want 2/b1", s.Epoch, s.Board)
	}
	if f.readbacks != 3 {
		t.Errorf("server saw %d readbacks, want 3 (two transient, one good)", f.readbacks)
	}
}

// TestResyncFailsFastOnPermanentError proves the retry loop does not mask
// non-transient failures: a readback rejected with no_device fails the op
// immediately, without burning the attempt budget.
func TestResyncFailsFastOnPermanentError(t *testing.T) {
	f, cli := startFake(t, []protocol.Code{protocol.CodeNoDevice})
	s := openFakeSession(t, cli)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Route(ctx, Pin(pinAt(1, 1, 0)), Pin(pinAt(2, 2, 0)))
	if err == nil {
		t.Fatal("Route succeeded, want resync failure")
	}
	var se *ServiceError
	if !errors.As(err, &se) || se.Code != protocol.CodeNoDevice {
		t.Errorf("err = %v, want ServiceError no_device", err)
	}
	if f.readbacks != 1 {
		t.Errorf("server saw %d readbacks, want 1 (no retry on permanent error)", f.readbacks)
	}
}

// TestResyncGivesUpAfterBudget proves the retry budget is bounded: a
// readback that never stops answering failover eventually surfaces the
// transient error instead of looping forever.
func TestResyncGivesUpAfterBudget(t *testing.T) {
	always := make([]protocol.Code, 32)
	for i := range always {
		always[i] = protocol.CodeFailover
	}
	f, cli := startFake(t, always)
	s := openFakeSession(t, cli)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.Route(ctx, Pin(pinAt(1, 1, 0)), Pin(pinAt(2, 2, 0)))
	if !errors.Is(err, ErrFailover) {
		t.Fatalf("err = %v, want wrapped ErrFailover after budget", err)
	}
	if f.readbacks < 2 || f.readbacks > 16 {
		t.Errorf("server saw %d readbacks, want a small bounded retry count", f.readbacks)
	}
}
