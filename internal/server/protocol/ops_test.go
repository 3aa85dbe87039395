package protocol_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

func pin(r, c int, w arch.Wire) protocol.EndPointMsg {
	return protocol.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
}

// pinNet is a session form of one live pin net with no path.
func pinNet(src, sink protocol.EndPointMsg) []byte {
	run, at := v3.AppendRecordEntry(nil, false, "", 1)
	run = v3.AppendPinEnd(append(run, 0), src.Pin.Row, src.Pin.Col, src.Pin.Wire)
	run = v3.AppendPinEnd(v3.AppendCount(run, 1), sink.Pin.Row, sink.Pin.Col, sink.Pin.Wire)
	return v3.EndRecordEntry(v3.AppendCount(v3.AppendCount(v3.AppendCount(run, 0), 0), 0), at)
}

// fixtures holds one servable request per row, keyed by op name. The rows
// are dispatched in table order against one worker, so each fixture may
// lean on what the rows above it left on the device: route's two-sink net
// is what reverse_unroute prunes and the traces read, bus's net is what
// unroute removes, core_new's register is what core_replace moves, and
// session_import replaces all of it with one net.
func fixtures() map[string]*protocol.Request {
	n1, n1a, n1b := pin(5, 7, arch.S1YQ), pin(6, 8, arch.S0F3), pin(3, 10, arch.S1G2)
	n2, n2a := pin(10, 2, arch.OutPin(0)), pin(13, 6, arch.Input(0))
	n3, n3a := pin(11, 2, arch.OutPin(1)), pin(12, 6, arch.Input(1))
	n4, n4a := pin(12, 2, arch.OutPin(2)), pin(11, 6, arch.Input(2))
	return map[string]*protocol.Request{
		"hello":    {Hello: &protocol.HelloMsg{}},
		"devices":  {},
		"statsz":   {},
		"connect":  {},
		"readback": {},

		"route":     {Source: &n1, Sinks: []protocol.EndPointMsg{n1a, n1b}},
		"bus":       {Sources: []protocol.EndPointMsg{n2}, Sinks: []protocol.EndPointMsg{n2a}},
		"bus_batch": {Sources: []protocol.EndPointMsg{n3}, Sinks: []protocol.EndPointMsg{n3a}},
		"batch":     {Nets: []protocol.NetMsg{{Source: n4, Sinks: []protocol.EndPointMsg{n4a}}}},

		"core_new":     {Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 16, Bits: 4}},
		"core_replace": {Core: &protocol.CoreMsg{Name: "reg", Row: 9, Col: 16}},

		"unroute":         {Source: &n2},
		"reverse_unroute": {Source: &n1b},

		"trace":         {Source: &n1},
		"reverse_trace": {Source: &n1a},

		"session_import": {Form: pinNet(n2, n2a)},

		"gw_drain": {Session: "be0"},
	}
}

// TestOpTable: the table guards itself. Names and bytes are unique and
// resolve both ways (the byte values themselves are pinned by the v3 ABI
// goldens, TestABIOpBytes). Then every row is dispatched once against the
// live tier its scope names — session rows on a worker, connection rows on
// a server over the wire (hello as a fresh connection's first frame), admin
// rows on a gateway — so a row no tier
// handles, or a row the test has no fixture for, fails here; and per row,
// "Mutating" is held to what the op did: the device configuration moved if
// and only if the row says so, and exactly then the response carries the
// dirtied frames and the journal hook was called.
func TestOpTable(t *testing.T) {
	names, codes := map[string]bool{}, map[byte]bool{}
	for i := range protocol.Ops {
		op := &protocol.Ops[i]
		if op.Name == "" || op.Byte == 0 {
			t.Errorf("row %d (%+v) lacks a name or a byte", i, *op)
		}
		if names[op.Name] || codes[op.Byte] {
			t.Errorf("row %q (%#x) repeats a name or a byte", op.Name, op.Byte)
		}
		names[op.Name], codes[op.Byte] = true, true
		if protocol.OpByName(op.Name) != op || protocol.OpByByte(op.Byte) != op {
			t.Errorf("row %q does not resolve to itself by name and by byte %#x", op.Name, op.Byte)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	journaled := false
	w, err := server.NewWorker(server.WorkerConfig{Name: "dev", Rows: 16, Cols: 24,
		JournalHook: func([]byte) { journaled = true }})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); <-w.Done() }()
	config := func() []byte {
		var cfg []byte
		err := w.Do(ctx, func(_ *core.Router, js *jbits.Session) (err error) {
			cfg, err = js.Dev.FullConfig()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	srv := server.NewServer()
	if err := srv.AddDevice("dev", "virtex", 16, 24); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Draining a backend nothing is pinned to never dials it.
	gw, err := gateway.New(gateway.Config{ProbeIntervalMillis: -1,
		Backends: []gateway.BackendConfig{{Name: "be0", Addr: "127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Shutdown(ctx)

	fix := fixtures()
	for i := range protocol.Ops {
		op := &protocol.Ops[i]
		req := fix[op.Name]
		if req == nil {
			t.Errorf("row %q has no fixture: give it one, so the row is dispatched", op.Name)
			continue
		}
		delete(fix, op.Name)
		req.Op = op.Name
		var resp *protocol.Response
		switch op.Scope {
		case protocol.ScopeSession:
			req.Session = "dev"
			before := config()
			journaled = false
			resp = w.Submit(ctx, req)
			moved := !bytes.Equal(before, config())
			framed := resp.FrameN > 0 && len(resp.Frames) > 0
			if moved != op.Mutating || framed != op.Mutating || journaled != op.Mutating {
				t.Errorf("row %q says Mutating=%v, but: configuration moved %v, response carries frames %v (FrameN %d), journal hook called %v",
					op.Name, op.Mutating, moved, framed, resp.FrameN, journaled)
			}
		case protocol.ScopeConn:
			if op.Byte == protocol.OpHello {
				resp = firstFrame(t, addr, req)
			} else if resp, err = c.Forward(ctx, req); err != nil {
				t.Fatalf("row %q over the wire: %v", op.Name, err)
			}
		case protocol.ScopeAdmin:
			resp = gw.Submit(ctx, req)
		default:
			t.Fatalf("row %q has scope %d, which no tier serves", op.Name, op.Scope)
		}
		if resp.Err != "" || resp.ErrorCode != protocol.CodeOK {
			t.Errorf("row %q is not served by its tier: %s (%s)", op.Name, resp.Err, resp.ErrorCode)
		}
	}
	for name := range fix {
		t.Errorf("fixture %q has no row in the table", name)
	}
}

// firstFrame sends req as the first frame of a fresh connection to addr
// and returns the response.
func firstFrame(t *testing.T, addr string, req *protocol.Request) *protocol.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := v3.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return readResponse(t, conn)
}

// readResponse reads and decodes one v3 response frame.
func readResponse(t *testing.T, conn net.Conn) *protocol.Response {
	t.Helper()
	var hdr [v3.HeaderSize]byte
	h, err := v3.ReadHeader(conn, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := v3.ReadPayloadInto(conn, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := new(protocol.Response)
	if err := v3.DecodeResponse(h, payload, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestUnknownOpEveryTier: an op with no row is the typed unknown_op code at
// whichever tier meets it first, and goes no further — the client puts
// nothing on the wire, the gateway forwards nothing to a backend. At the
// server the wire names ops by byte, so its case is a well-formed frame
// with an unassigned op byte.
func TestUnknownOpEveryTier(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv := server.NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire := func() int {
		t.Helper()
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Wire.FramesIn
	}

	gw, err := gateway.New(gateway.Config{ProbeIntervalMillis: -1,
		Backends: []gateway.BackendConfig{{Name: "be0", Addr: addr}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Shutdown(ctx)

	tiers := []struct {
		name   string
		submit func() *protocol.Response
	}{
		{"client.Forward", func() *protocol.Response {
			before := wire()
			resp, err := c.Forward(ctx, &protocol.Request{Op: "reroute", Session: "dev"})
			if err != nil {
				t.Fatal(err)
			}
			if sent := wire() - before - 1; sent != 0 { // the statsz call itself is one frame
				t.Errorf("client sent %d frames for an op with no row", sent)
			}
			return resp
		}},
		{"Server.dispatch", func() *protocol.Response {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			raw := client.NewClient(conn)
			if err := raw.Hello(ctx); err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, v3.HeaderSize)
			v3.PutHeader(frame, v3.Header{Op: 0x7F, ID: 9})
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			resp := readResponse(t, conn)
			if resp.ID != 9 {
				t.Errorf("response id %d, want 9", resp.ID)
			}
			return resp
		}},
		{"Gateway.Submit", func() *protocol.Response {
			resp := gw.Submit(ctx, &protocol.Request{Op: "reroute", Session: "dev"})
			if be := gw.GatewayStats().BackendsMap["be0"]; be.Ops != 0 || be.Errors != 0 {
				t.Errorf("gateway forwarded an op with no row: %+v", be)
			}
			return resp
		}},
	}
	for _, tier := range tiers {
		if resp := tier.submit(); resp.ErrorCode != protocol.CodeUnknownOp {
			t.Errorf("%s: code %q (err %q), want %q", tier.name, resp.ErrorCode, resp.Err, protocol.CodeUnknownOp)
		}
	}
}
