package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
	"repro/internal/workload"
)

// TestV3Negotiation: a default client's hello is accepted, the full
// session surface works over the binary framing, a scripted
// session leaves the client mirror — advanced only by pushed partial frames
// — byte-identical to the server's readback and oracle-clean, and the
// server's wire stats see the connection and its frames.
func TestV3Negotiation(t *testing.T) {
	const rows, cols = 16, 24
	addr, _ := startDaemon(t, server.Options{}, "dev", "scripted")
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := driveSession(t, addr, "dev"); err != nil {
		t.Fatalf("full surface over v3: %v", err)
	}

	script, err := workload.New(7, rows, cols).Script(workload.ScriptOptions{Steps: 120, CoreSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Session(ctx, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := scriptSession(ctx, s, script, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, ok := range outcomes {
		if ok {
			routed++
		}
	}
	if routed < len(script)/2 {
		t.Fatalf("only %d of %d scripted ops succeeded", routed, len(script))
	}
	theirs, err := s.Readback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := s.Mirror.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine, theirs) {
		diff, derr := oracle.DiffStreams(arch.NewVirtex(), mine, theirs)
		t.Fatalf("mirror diverged from server after the script (%d PIPs differ, diff err %v)", len(diff), derr)
	}
	if err := s.VerifyMirror(); err != nil {
		t.Errorf("scripted mirror: %v", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := stats.Wire
	if w == nil {
		t.Fatal("statsz has no wire section")
	}
	if w.Conns < 2 { // this client and driveSession's
		t.Errorf("connections not counted: %+v", w)
	}
	if w.FramesIn <= len(script) || w.FramesOut <= len(script) || w.BytesIn == 0 || w.BytesOut == 0 {
		t.Errorf("traffic not counted: %+v", w)
	}
}

// TestHandshakeEdge: a connection speaks v3 from its first byte. The
// XHWIF-framed JSON hello an earlier client opens with gets the constant
// typed version refusal, which that client can read, and a closed
// connection (so does any other first frame: TestHelloRequired). A JSON
// frame after a good hello lands in v3 framing position, where the garbage
// filter counts it, answers the typed malformed error and closes. A second
// hello is a bad request, answered by id, and the connection goes on.
func TestHandshakeEdge(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "dev")
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	legacyHello := []byte(`{"id":1,"op":"hello","hello":{"version":2,"caps":["binv3"]}}`)

	conn := dial()
	if err := jbits.WriteFrame(conn, 0x10, legacyHello); err != nil {
		t.Fatal(err)
	}
	if code, id := readRefusal(t, conn); code != protocol.CodeVersion.String() || id != 1 {
		t.Fatalf("JSON hello: code %q id %d, want %q id 1", code, id, protocol.CodeVersion)
	}
	expectClosed(t, conn, "JSON hello")

	conn = dial()
	rawHello(t, conn)
	if err := jbits.WriteFrame(conn, 0x10, legacyHello); err != nil {
		t.Fatal(err)
	}
	if resp := readV3(t, conn); resp.ErrorCode != protocol.CodeMalformed {
		t.Fatalf("JSON frame after hello: code %q err %q, want %q", resp.ErrorCode, resp.Err, protocol.CodeMalformed)
	}
	expectClosed(t, conn, "JSON frame after hello")

	conn = dial()
	rawHello(t, conn)
	resp := rawCall(t, conn, &server.Request{ID: 2, Op: "hello", Hello: &protocol.HelloMsg{}})
	if resp.ErrorCode != protocol.CodeBadRequest || resp.ID != 2 {
		t.Fatalf("second hello: code %q id %d (err %q), want %q id 2", resp.ErrorCode, resp.ID, resp.Err, protocol.CodeBadRequest)
	}
	if resp := rawCall(t, conn, &server.Request{ID: 3, Op: "devices"}); resp.Err != "" || resp.ID != 3 {
		t.Fatalf("devices after a second hello: %+v", resp)
	}

	c, err := client.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Wire == nil || stats.Wire.Malformed != 1 || stats.Wire.Conns != 3 {
		t.Errorf("wire stats = %+v, want 1 malformed frame and 3 helloed connections", stats.Wire)
	}
}

// readRefusal reads the server's one framed-JSON message, the refusal of
// an earlier client's hello, and returns its code and id.
func readRefusal(t *testing.T, conn net.Conn) (code string, id uint64) {
	t.Helper()
	op, body, err := jbits.ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	var refusal struct {
		ID   uint64 `json:"id"`
		Code string `json:"code"`
	}
	if op != 0x10|jbits.RespFlag || json.Unmarshal(body, &refusal) != nil {
		t.Fatalf("refusal: op %#x body %q", op, body)
	}
	return refusal.Code, refusal.ID
}

// rawHello says hello over a raw connection.
func rawHello(t *testing.T, conn net.Conn) {
	t.Helper()
	if resp := rawCall(t, conn, &server.Request{ID: 1, Op: "hello", Hello: &protocol.HelloMsg{}}); resp.Err != "" {
		t.Fatalf("hello rejected: %s", resp.Err)
	}
}

// readV3 reads and decodes one v3 response frame.
func readV3(t *testing.T, conn net.Conn) *server.Response {
	t.Helper()
	var hdr [v3.HeaderSize]byte
	h, err := v3.ReadHeader(conn, &hdr)
	if err != nil {
		t.Fatalf("reading a v3 response: %v", err)
	}
	payload, err := v3.ReadPayloadInto(conn, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := new(server.Response)
	if err := v3.DecodeResponse(h, payload, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV3MalformedFilter: garbage after the hello is rejected by the
// pre-parse filter with a typed malformed error before any dispatch, the
// statsz counter ticks, and the connection is closed (the stream is no
// longer frame-aligned).
func TestV3MalformedFilter(t *testing.T) {
	addr, _ := startDaemon(t, server.Options{}, "dev")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawHello(t, conn)

	if _, err := conn.Write([]byte("this is not a v3 frame, not even close")); err != nil {
		t.Fatal(err)
	}
	resp := readV3(t, conn)
	if resp.ErrorCode != protocol.CodeMalformed {
		t.Fatalf("error code = %q, want %q (err: %s)", resp.ErrorCode, protocol.CodeMalformed, resp.Err)
	}
	// The server closes a desynced stream after the typed error.
	expectClosed(t, conn, "filtered frame")

	// A decode-level failure (valid header, corrupt payload) also counts as
	// malformed but keeps the connection: framing is still trustworthy.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rawHello(t, conn2)
	frame := make([]byte, v3.HeaderSize+2)
	v3.PutHeader(frame, v3.Header{Op: protocol.OpRoute, ID: 9, Len: 2})
	frame[v3.HeaderSize] = 0xFF
	frame[v3.HeaderSize+1] = 0xFF
	if _, err := conn2.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp2 := readV3(t, conn2)
	if resp2.ErrorCode != protocol.CodeMalformed || resp2.ID != 9 {
		t.Fatalf("decode failure: code=%q id=%d", resp2.ErrorCode, resp2.ID)
	}
	// The connection survives: a well-formed request still answers.
	resp3 := rawCall(t, conn2, &server.Request{ID: 10, Op: "devices"})
	if resp3.ID != 10 || len(resp3.Devices) != 1 {
		t.Fatalf("devices after decode error: %+v", resp3)
	}

	// Both events are on the malformed counter.
	c, err := client.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Wire == nil || stats.Wire.Malformed < 2 {
		t.Errorf("malformed counter = %+v, want >= 2", stats.Wire)
	}
}

// scriptSession drives one workload script over a live client session,
// returning the per-op outcome vector (true = op succeeded).
func scriptSession(ctx context.Context, s *client.Session, script []workload.ScriptOp, rows, cols int) ([]bool, error) {
	pins := func(ps []core.Pin) []server.EndPointMsg {
		out := make([]server.EndPointMsg, len(ps))
		for i, p := range ps {
			out[i] = client.Pin(p)
		}
		return out
	}
	regs := make(map[int]string)
	outcomes := make([]bool, 0, len(script))
	for i, op := range script {
		var err error
		switch op.Kind {
		case workload.OpRouteNet, workload.OpReroute, workload.OpRouteFanout:
			err = s.Route(ctx, client.Pin(op.Src), pins(op.Sinks)...)
		case workload.OpRouteBus:
			err = s.RouteBusBatch(ctx, pins(op.Srcs), pins(op.Dsts))
		case workload.OpUnroute:
			err = s.Unroute(ctx, client.Pin(op.Src))
		case workload.OpReverseUnroute:
			err = s.ReverseUnroute(ctx, client.Pin(op.Sinks[0]))
		case workload.OpCoreNew:
			name := fmt.Sprintf("reg_s%d_%d", op.Slot, op.Serial)
			row, col := workload.CoreSlotSite(op.Slot, rows, cols)
			err = s.NewCore(ctx, protocol.CoreMsg{Name: name, Kind: "register", Row: row, Col: col, Bits: 4})
			if err == nil {
				regs[op.Slot] = name
				err = s.Route(ctx, client.PortRef(name, "q", 0), client.Pin(op.Sinks[0]))
			}
		case workload.OpCoreReplace:
			name, ok := regs[op.Slot]
			if !ok {
				err = fmt.Errorf("no core at slot %d", op.Slot)
			} else {
				row, col := workload.CoreSlotSite(op.Slot, rows, cols)
				err = s.ReplaceCore(ctx, protocol.CoreMsg{Name: name, Row: row, Col: col})
			}
		default:
			return nil, fmt.Errorf("step %d: unknown op kind %v", i, op.Kind)
		}
		outcomes = append(outcomes, err == nil)
	}
	return outcomes, nil
}
