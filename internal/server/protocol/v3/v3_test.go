package v3

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/server/protocol"
)

// pin / port build endpoint messages for the golden fixtures.
func pin(row, col, wire int) protocol.EndPointMsg {
	return protocol.EndPointMsg{Pin: protocol.PinMsg{Row: row, Col: col, Wire: wire}}
}

func port(core, group string, index int) protocol.EndPointMsg {
	return protocol.EndPointMsg{Port: protocol.PortRefMsg{Core: core, Group: group, Index: index}, IsPort: true}
}

func u64p(v uint64) *uint64 { return &v }

// TestABIHeader pins the exact header layout byte by byte (udpx-style):
// any codec change that shifts a byte here is a wire break.
func TestABIHeader(t *testing.T) {
	var buf [HeaderSize]byte
	PutHeader(buf[:], Header{Op: protocol.OpRoute, Flags: FlagResp, ID: 0x0102030405060708, Len: 0x01223344})
	want := []byte{
		0x4A, 0x52, 0x76, 0x33, // magic "JRv3"
		0x03,       // version
		0x10,       // op: route
		0x01, 0x00, // flags: FlagResp, little-endian
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id, little-endian
		0x44, 0x33, 0x22, 0x01, // length, little-endian
	}
	if !bytes.Equal(buf[:], want) {
		t.Fatalf("header ABI changed:\n got %x\nwant %x", buf[:], want)
	}
	h, err := ParseHeader(buf[:])
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if h.Op != protocol.OpRoute || h.Flags != FlagResp || h.ID != 0x0102030405060708 || h.Len != 0x01223344 {
		t.Fatalf("ParseHeader round trip: %+v", h)
	}
}

// TestABIOpBytes pins every op byte assignment.
func TestABIOpBytes(t *testing.T) {
	want := map[string]byte{
		"connect": 0x01, "devices": 0x02, "statsz": 0x03, "readback": 0x04, "hello": 0x05,
		"route": 0x10, "bus": 0x11, "bus_batch": 0x12, "batch": 0x13,
		"unroute": 0x14, "reverse_unroute": 0x15, "trace": 0x16, "reverse_trace": 0x17,
		"core_new": 0x20, "core_replace": 0x21, "session_import": 0x22,
		"gw_drain": 0x30,
	}
	if len(want) != len(protocol.Ops) {
		t.Fatalf("op table has %d entries, ABI pins %d", len(protocol.Ops), len(want))
	}
	for name, b := range want {
		if got, ok := OpByte(name); !ok || got != b {
			t.Errorf("op %q = %#x, ABI pins %#x", name, got, b)
		}
		if op := protocol.OpByByte(b); op == nil || op.Name != name {
			t.Errorf("op byte %#x = %+v, ABI pins %q", b, op, name)
		}
	}
}

// TestABICodeBytes pins every error code's byte and name.
func TestABICodeBytes(t *testing.T) {
	want := []struct {
		code protocol.Code
		b    byte
		name string
	}{
		{protocol.CodeOK, 0x00, ""},
		{protocol.CodeBadRequest, 0x01, "bad_request"}, {protocol.CodeUnknownOp, 0x02, "unknown_op"},
		{protocol.CodeVersion, 0x03, "version_mismatch"}, {protocol.CodeNoDevice, 0x04, "no_device"},
		{protocol.CodeBusy, 0x05, "busy"}, {protocol.CodeCanceled, 0x06, "canceled"},
		{protocol.CodeDeadline, 0x07, "deadline"}, {protocol.CodeAdmission, 0x08, "admission"},
		{protocol.CodeBoardDown, 0x09, "board_down"}, {protocol.CodeFailover, 0x0A, "failover"},
		{protocol.CodeRoute, 0x0B, "route"}, {protocol.CodeInternal, 0x0C, "internal"},
		{protocol.CodeMalformed, 0x0D, "malformed"}, {protocol.CodeUnauthorized, 0x0E, "unauthorized"},
		{protocol.CodeQuota, 0x0F, "quota_exceeded"}, {protocol.CodeUnknownAlias, 0x10, "unknown_alias"},
	}
	for _, w := range want {
		if byte(w.code) != w.b || w.code.String() != w.name {
			t.Errorf("code %q = %#x, ABI pins %q = %#x", w.code, byte(w.code), w.name, w.b)
		}
	}
	if s := protocol.Code(len(want)).String(); s != "" {
		t.Errorf("code byte %#x has name %q, ABI pins none", len(want), s)
	}
}

// hdr builds an expected header prefix for the golden frames.
func hdr(op byte, flags uint16, id uint64, length int) []byte {
	var b [HeaderSize]byte
	PutHeader(b[:], Header{Op: op, Flags: flags, ID: id, Len: uint32(length)})
	return b[:]
}

func frame(op byte, flags uint16, id uint64, payload ...byte) []byte {
	return append(hdr(op, flags, id, len(payload)), payload...)
}

// TestABIRequests pins a byte-exact golden encoding for every request op
// record.
func TestABIRequests(t *testing.T) {
	cases := []struct {
		name string
		req  protocol.Request
		want []byte
	}{
		{"route",
			protocol.Request{ID: 1, Op: "route", Session: "dev0",
				Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
				Sinks:  []protocol.EndPointMsg{pin(3, 4, 9)}},
			frame(0x10, 0, 1,
				0x04, 'd', 'e', 'v', '0', // session "dev0"
				0x00,                   // timeout 0
				0x01, 0x02, 0x04, 0x07, // source: pin, zigzag(1), zigzag(2), wire 7
				0x01,                   // 1 sink
				0x01, 0x06, 0x08, 0x09, // sink: pin, zigzag(3), zigzag(4), wire 9
			)},
		{"connect+key",
			protocol.Request{ID: 2, Op: "connect", Session: "a", TimeoutMillis: 250, Key: u64p(5)},
			frame(0x01, 0, 2,
				0x01, 'a',
				0xFA, 0x01, // timeout 250 as uvarint
				0x01, 0x05, // key present, key 5
			)},
		{"devices",
			protocol.Request{ID: 10, Op: "devices"},
			frame(0x02, 0, 10, 0x00, 0x00)},
		{"gw_drain",
			protocol.Request{ID: 11, Op: "gw_drain", Session: "be0"},
			frame(0x30, 0, 11, 0x03, 'b', 'e', '0', 0x00)},
		{"statsz",
			protocol.Request{ID: 8, Op: "statsz"},
			frame(0x03, 0, 8, 0x00, 0x00)},
		{"readback",
			protocol.Request{ID: 11, Op: "readback", Session: "d"},
			frame(0x04, 0, 11, 0x01, 'd', 0x00)},
		{"bus",
			protocol.Request{ID: 12, Op: "bus", Session: "d",
				Sources: []protocol.EndPointMsg{pin(1, 1, 2)},
				Sinks:   []protocol.EndPointMsg{pin(2, 3, 4)}},
			frame(0x11, 0, 12,
				0x01, 'd', 0x00,
				0x01, 0x01, 0x02, 0x02, 0x02,
				0x01, 0x01, 0x04, 0x06, 0x04,
			)},
		{"bus_batch+port",
			protocol.Request{ID: 3, Op: "bus_batch", Session: "d",
				Sources: []protocol.EndPointMsg{port("m0", "q", 1)},
				Sinks:   []protocol.EndPointMsg{pin(2, 3, 4)}},
			frame(0x12, 0, 3,
				0x01, 'd', 0x00,
				0x01,                                  // 1 source
				0x02, 0x02, 'm', '0', 0x01, 'q', 0x02, // port "m0"."q"[1]
				0x01,                   // 1 sink
				0x01, 0x04, 0x06, 0x04, // pin(2,3,4)
			)},
		{"batch",
			protocol.Request{ID: 4, Op: "batch", Session: "d",
				Nets: []protocol.NetMsg{{Source: pin(0, 1, 3), Sinks: []protocol.EndPointMsg{pin(2, 2, 5)}}}},
			frame(0x13, 0, 4,
				0x01, 'd', 0x00,
				0x01,                   // 1 net
				0x01, 0x00, 0x02, 0x03, // source pin(0,1,3)
				0x01, 0x01, 0x04, 0x04, 0x05, // 1 sink: pin(2,2,5)
				0x00, // no pips
			)},
		{"unroute",
			protocol.Request{ID: 5, Op: "unroute", Session: "d",
				Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 5, Col: 6, Wire: 7}}},
			frame(0x14, 0, 5, 0x01, 'd', 0x00, 0x01, 0x0A, 0x0C, 0x07)},
		{"reverse_unroute",
			protocol.Request{ID: 13, Op: "reverse_unroute", Session: "d",
				Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 0, Col: 0, Wire: 1}}},
			frame(0x15, 0, 13, 0x01, 'd', 0x00, 0x01, 0x00, 0x00, 0x01)},
		{"trace",
			protocol.Request{ID: 9, Op: "trace", Session: "d",
				Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 1, Wire: 1}}},
			frame(0x16, 0, 9, 0x01, 'd', 0x00, 0x01, 0x02, 0x02, 0x01)},
		{"reverse_trace",
			protocol.Request{ID: 14, Op: "reverse_trace", Session: "d",
				Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 0, Col: 0, Wire: 2}}},
			frame(0x17, 0, 14, 0x01, 'd', 0x00, 0x01, 0x00, 0x00, 0x02)},
		{"core_new",
			protocol.Request{ID: 6, Op: "core_new", Session: "d",
				Core: &protocol.CoreMsg{Name: "r0", Kind: "register", Row: 34, Col: 2, Bits: 4}},
			frame(0x20, 0, 6,
				0x01, 'd', 0x00,
				0x02, 'r', '0',
				0x08, 'r', 'e', 'g', 'i', 's', 't', 'e', 'r',
				0x44, 0x04, // zigzag(34), zigzag(2)
				0x00,       // no K
				0x00, 0x08, // kbits 0, zigzag(4)
			)},
		{"core_replace",
			protocol.Request{ID: 7, Op: "core_replace", Session: "d",
				Core: &protocol.CoreMsg{Name: "m", Kind: "constmul", Row: 1, Col: 2, K: u64p(11), KBits: 8}},
			frame(0x21, 0, 7,
				0x01, 'd', 0x00,
				0x01, 'm',
				0x08, 'c', 'o', 'n', 's', 't', 'm', 'u', 'l',
				0x02, 0x04, // zigzag(1), zigzag(2)
				0x01, 0x0B, // K present, K=11
				0x10, 0x00, // zigzag(8), bits 0
			)},
		{"session_import",
			protocol.Request{ID: 15, Op: "session_import", Session: "d", Form: testForm()},
			frame(0x22, 0, 15,
				0x01, 'd', 0x00,
				0x01, 0x01, 'd', // core entry, owner "d"
				0x01, 'r',
				0x08, 'r', 'e', 'g', 'i', 's', 't', 'e', 'r',
				0x02, 0x04, // zigzag(1), zigzag(2)
				0x00,       // no K
				0x00, 0x04, // kbits 0, zigzag(2)
				0x02, 0x01, 'd', 0x03, // live entry, owner "d", seq 3
				0x11, 0x00, 0x00, 0x00, // record blob of 17 bytes
				0x00,                   // kind
				0x01, 0x02, 0x04, 0x03, // source pin(1,2,3)
				0x01, 0x01, 0x08, 0x0A, 0x06, // 1 sink: pin(4,5,6)
				0x01, 0x02, 0x04, 0x03, 0x04, // 1 pip: (1,2) 3->4
				0x00, 0x00, // no At pins, no home
				0x03, 0x01, 'd', 0x05, // memory entry, owner "d", seq 5
				0x19, 0x00, 0x00, 0x00, // record blob of 25 bytes
				0x00,                             // kind
				0x02, 0x01, 'r', 0x01, 'q', 0x00, // source port "r"."q"[0]
				0x01, 0x01, 0x08, 0x0A, 0x06, // 1 sink: pin(4,5,6)
				0x01, 0x02, 0x04, 0x03, 0x04, // 1 pip
				0x02, 0x02, 0x04, 0x03, 0x08, 0x0A, 0x06, // At: pin(1,2,3), pin(4,5,6)
				0x00, // no home
			)},
		{"hello",
			protocol.Request{ID: 16, Op: "hello", Hello: &protocol.HelloMsg{Token: "tk", Delta: true}},
			frame(0x05, 0, 16,
				0x00,           // session ""
				0x00,           // timeout 0
				0x02, 't', 'k', // token "tk"
				0x01, // delta asked for
			)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := AppendRequest(nil, &tc.req)
			if err != nil {
				t.Fatalf("AppendRequest: %v", err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("request ABI changed:\n got %x\nwant %x", got, tc.want)
			}
			// Decode must reproduce the request, proven by re-encoding to
			// the identical bytes (the canonical-form round trip).
			h, err := ParseHeader(got)
			if err != nil {
				t.Fatalf("ParseHeader: %v", err)
			}
			var back protocol.Request
			if err := DecodeRequest(h, got[HeaderSize:], &back, nil); err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			again, err := AppendRequest(nil, &back)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again, tc.want) {
				t.Fatalf("decode/re-encode not canonical:\n got %x\nwant %x", again, tc.want)
			}
		})
	}
}

// TestABIResponses pins a byte-exact golden encoding for every response
// record shape, including the zero-copy head/raw split.
func TestABIResponses(t *testing.T) {
	cases := []struct {
		name     string
		op       byte
		resp     protocol.Response
		wantHead []byte
		wantRaw  []byte
	}{
		{"mutating", protocol.OpRoute,
			protocol.Response{ID: 2, Board: "b0", Epoch: 3, FrameN: 2, Frames: []byte{0xAA, 0xBB, 0xCC}},
			append(hdr(0x10, FlagResp, 2, 10),
				0x00,           // code OK
				0x02, 'b', '0', // board
				0x03, // epoch
				0x02, // frame count
				0x03, // frame-stream length
			),
			[]byte{0xAA, 0xBB, 0xCC}},
		{"mutating+delta", protocol.OpRoute,
			protocol.Response{ID: 2, Board: "b0", Epoch: 3, FrameN: 2, Frames: []byte{0xAA, 0xBB, 0xCC},
				Delta: []byte{EntryGone, 0x01, 'd', 0x07}},
			append(hdr(0x10, FlagResp|FlagDelta, 2, 15),
				0x00,           // code OK
				0x02, 'b', '0', // board
				0x03,             // epoch
				0x02,             // frame count
				0x03,             // frame-stream length
				0xAA, 0xBB, 0xCC, // the frames, in the head with a delta behind them
				0x04,                  // delta length
				0x04, 0x01, 'd', 0x07, // gone: owner "d", seq 7
			),
			nil},
		{"connect", protocol.OpConnect,
			protocol.Response{ID: 1, Rows: 4, Cols: 4, Arch: "virtex", Config: []byte{0x01, 0x02}},
			append(hdr(0x01, FlagResp, 1, 15),
				0x00,       // code OK
				0x00,       // board ""
				0x00,       // epoch 0
				0x08, 0x08, // zigzag(4), zigzag(4)
				0x06, 'v', 'i', 'r', 't', 'e', 'x',
				0x02, // config length
			),
			[]byte{0x01, 0x02}},
		{"readback", protocol.OpReadback,
			protocol.Response{ID: 5, Config: []byte{0xDE, 0xAD}},
			append(hdr(0x04, FlagResp, 5, 6), 0x00, 0x00, 0x00, 0x02),
			[]byte{0xDE, 0xAD}},
		{"devices", protocol.OpDevices,
			protocol.Response{ID: 3, Devices: []string{"a", "b"}},
			append(hdr(0x02, FlagResp, 3, 8),
				0x00, 0x00, 0x00, 0x02, 0x01, 'a', 0x01, 'b'),
			nil},
		{"gw_drain", protocol.OpGwDrain,
			protocol.Response{ID: 9, Devices: []string{"s0"}},
			append(hdr(0x30, FlagResp, 9, 7),
				0x00, 0x00, 0x00, 0x01, 0x02, 's', '0'),
			nil},
		{"trace", protocol.OpTrace,
			protocol.Response{ID: 4, Net: &protocol.NetMsg{
				Source: pin(1, 2, 3),
				Sinks:  []protocol.EndPointMsg{pin(4, 5, 6)},
				Pips:   []protocol.PipMsg{{Row: 1, Col: 2, From: 3, To: 4}}}},
			append(hdr(0x16, FlagResp, 4, 18),
				0x00, 0x00, 0x00,
				0x01,                   // net present
				0x01, 0x02, 0x04, 0x03, // source pin(1,2,3)
				0x01, 0x01, 0x08, 0x0A, 0x06, // 1 sink: pin(4,5,6)
				0x01, 0x02, 0x04, 0x03, 0x04, // 1 pip: (1,2) 3->4
			),
			nil},
		{"error", protocol.OpRoute,
			protocol.Response{ID: 7, Err: "nope", ErrorCode: protocol.CodeRoute},
			append(hdr(0x10, FlagResp, 7, 6), 0x0B, 0x04, 'n', 'o', 'p', 'e'),
			nil},
		{"busy", protocol.OpRoute,
			protocol.Response{ID: 8, Busy: true, Err: "q full", ErrorCode: protocol.CodeBusy},
			append(hdr(0x10, FlagResp, 8, 8), 0x05, 0x06, 'q', ' ', 'f', 'u', 'l', 'l'),
			nil},
		{"hello", protocol.OpHello,
			protocol.Response{ID: 16, Hello: &protocol.HelloMsg{
				Layouts: map[string]string{"virtex": "ab", "kestrel": "cd"}}},
			append(hdr(0x05, FlagResp, 16, 25),
				0x00, 0x00, 0x00, // code OK, board "", epoch 0
				0x02,                                                    // 2 layouts, sorted by name
				0x07, 'k', 'e', 's', 't', 'r', 'e', 'l', 0x02, 'c', 'd', // kestrel: "cd"
				0x06, 'v', 'i', 'r', 't', 'e', 'x', 0x02, 'a', 'b', // virtex: "ab"
			),
			nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			head, raw, err := AppendResponse(nil, tc.op, &tc.resp)
			if err != nil {
				t.Fatalf("AppendResponse: %v", err)
			}
			if !bytes.Equal(head, tc.wantHead) {
				t.Fatalf("response head ABI changed:\n got %x\nwant %x", head, tc.wantHead)
			}
			if !bytes.Equal(raw, tc.wantRaw) {
				t.Fatalf("response raw tail changed:\n got %x\nwant %x", raw, tc.wantRaw)
			}
			// Decode the assembled frame and re-encode: canonical round trip.
			full := append(append([]byte(nil), head...), raw...)
			h, err := ParseHeader(full)
			if err != nil {
				t.Fatalf("ParseHeader: %v", err)
			}
			var back protocol.Response
			if err := DecodeResponse(h, full[HeaderSize:], &back); err != nil {
				t.Fatalf("DecodeResponse: %v", err)
			}
			head2, raw2, err := AppendResponse(nil, tc.op, &back)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(head2, tc.wantHead) || !bytes.Equal(raw2, tc.wantRaw) {
				t.Fatalf("decode/re-encode not canonical:\n got %x + %x\nwant %x + %x",
					head2, raw2, tc.wantHead, tc.wantRaw)
			}
		})
	}
}

// TestStatszRoundTrip covers the statsz record (JSON blob tail).
func TestStatszRoundTrip(t *testing.T) {
	resp := protocol.Response{ID: 9, Stats: &protocol.StatsMsg{
		Sessions: map[string]protocol.SessionStatsMsg{"d": {Routes: 3}},
		Wire:     &protocol.WireStatsMsg{Conns: 1, Malformed: 2},
	}}
	head, raw, err := AppendResponse(nil, protocol.OpStatsz, &resp)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	full := append(append([]byte(nil), head...), raw...)
	h, err := ParseHeader(full)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	var back protocol.Response
	if err := DecodeResponse(h, full[HeaderSize:], &back); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if back.Stats == nil || back.Stats.Sessions["d"].Routes != 3 ||
		back.Stats.Wire == nil || back.Stats.Wire.Conns != 1 || back.Stats.Wire.Malformed != 2 {
		t.Fatalf("statsz round trip lost data: %+v", back.Stats)
	}
}

// TestFilterGarbage feeds the pre-parse filter truncated, oversized and
// garbage frames; each must be rejected as a typed FilterError (or a short
// read) before any payload handling.
func TestFilterGarbage(t *testing.T) {
	valid := hdr(protocol.OpRoute, 0, 1, 4)
	garbageMagic := append([]byte("XXXX"), valid[4:]...)
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 2
	oversized := append([]byte(nil), valid...)
	oversized[16], oversized[17], oversized[18], oversized[19] = 0xFF, 0xFF, 0xFF, 0x7F

	for _, tc := range []struct {
		name string
		in   []byte
		code protocol.Code
	}{
		{"garbage magic", garbageMagic, protocol.CodeMalformed},
		{"wrong version", badVersion, protocol.CodeVersion},
		{"oversized length", oversized, protocol.CodeMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var scratch [HeaderSize]byte
			_, err := ReadHeader(bytes.NewReader(tc.in), &scratch)
			var fe *FilterError
			if !errors.As(err, &fe) || fe.Code != tc.code {
				t.Fatalf("want FilterError answered %q, got %v", tc.code, err)
			}
			// And via ParseHeader directly, without a reader.
			if _, err := ParseHeader(tc.in); !errors.As(err, &fe) {
				t.Fatalf("ParseHeader: want FilterError, got %v", err)
			}
		})
	}

	t.Run("truncated header", func(t *testing.T) {
		var scratch [HeaderSize]byte
		_, err := ReadHeader(bytes.NewReader(valid[:10]), &scratch)
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
		var fe *FilterError
		if errors.As(err, &fe) {
			t.Fatalf("a truncated header is a transport failure, not garbage: %v", err)
		}
	})

	t.Run("clean close", func(t *testing.T) {
		var scratch [HeaderSize]byte
		if _, err := ReadHeader(bytes.NewReader(nil), &scratch); err != io.EOF {
			t.Fatalf("want io.EOF between frames, got %v", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		h := Header{Op: protocol.OpRoute, ID: 1, Len: 100}
		_, err := ReadPayloadInto(strings.NewReader("short"), h, nil)
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
	})
}

// TestDecodeGarbagePayloads makes sure corrupt payloads fail decoding
// without panicking or over-allocating.
func TestDecodeGarbagePayloads(t *testing.T) {
	req := protocol.Request{ID: 1, Op: "route", Session: "dev0",
		Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
		Sinks:  []protocol.EndPointMsg{pin(3, 4, 9)}}
	full, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := ParseHeader(full)
	payload := full[HeaderSize:]

	// Every strict prefix of a valid payload must fail cleanly.
	for i := 0; i < len(payload); i++ {
		var back protocol.Request
		if err := DecodeRequest(h, payload[:i], &back, nil); err == nil {
			t.Fatalf("truncated payload [:%d] decoded without error", i)
		}
	}
	// Trailing junk is rejected too.
	var back protocol.Request
	if err := DecodeRequest(h, append(append([]byte(nil), payload...), 0xFF), &back, nil); err == nil {
		t.Fatal("trailing junk decoded without error")
	}
	// Unknown op byte.
	if err := DecodeRequest(Header{Op: 0xEE}, nil, &back, nil); err == nil {
		t.Fatal("unknown op decoded without error")
	}
	// A huge element count bounded only by the varint must be rejected
	// before allocation (count exceeds remaining bytes).
	bad := []byte{0x00, 0x00, 0x01, 0x02, 0x04, 0x07, 0xFF, 0xFF, 0xFF, 0x7F}
	if err := DecodeRequest(Header{Op: protocol.OpRoute}, bad, &back, nil); err == nil {
		t.Fatal("oversized sink count decoded without error")
	}
}

// TestEncodeAllocs proves the hot encode path is allocation-free once the
// destination buffers are warm — the codec half of the ~0 allocs/op server
// target.
func TestEncodeAllocs(t *testing.T) {
	req := protocol.Request{ID: 1, Op: "route", Session: "dev0",
		Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
		Sinks:  []protocol.EndPointMsg{pin(3, 4, 9)}}
	frames := bytes.Repeat([]byte{0x5A}, 512)
	resp := protocol.Response{ID: 1, Epoch: 1, FrameN: 3, Frames: frames}

	reqBuf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if _, err = AppendRequest(reqBuf[:0], &req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendRequest allocates %.1f times per op, want 0", n)
	}

	respBuf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		head, raw, err := AppendResponse(respBuf[:0], protocol.OpRoute, &resp)
		if err != nil || len(head) == 0 || len(raw) != len(frames) {
			t.Fatalf("AppendResponse: %v", err)
		}
	}); n != 0 {
		t.Fatalf("AppendResponse allocates %.1f times per op, want 0", n)
	}
}

// TestInterner checks that repeated names stop allocating and decode to
// the same backing string.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.intern([]byte("session-0"))
	b := in.intern([]byte("session-0"))
	if a != b {
		t.Fatal("interner returned different strings for equal bytes")
	}
	if n := testing.AllocsPerRun(100, func() {
		if in.intern([]byte("session-0")) != "session-0" {
			t.Fatal("bad intern")
		}
	}); n != 0 {
		t.Fatalf("warm intern allocates %.1f times, want 0", n)
	}
}

func BenchmarkAppendRequestRoute(b *testing.B) {
	req := protocol.Request{ID: 1, Op: "route", Session: "dev0",
		Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
		Sinks:  []protocol.EndPointMsg{pin(3, 4, 9)}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendRequest(buf[:0], &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendResponseFrames(b *testing.B) {
	resp := protocol.Response{ID: 1, Epoch: 1, FrameN: 8,
		Frames: bytes.Repeat([]byte{0x5A}, 4096)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		head, _, err := AppendResponse(buf[:0], protocol.OpRoute, &resp)
		if err != nil {
			b.Fatal(err)
		}
		buf = head[:0]
	}
}

func BenchmarkDecodeRequestRoute(b *testing.B) {
	req := protocol.Request{ID: 1, Op: "route", Session: "dev0",
		Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
		Sinks:  []protocol.EndPointMsg{pin(3, 4, 9)}}
	full, err := AppendRequest(nil, &req)
	if err != nil {
		b.Fatal(err)
	}
	h, _ := ParseHeader(full)
	payload := full[HeaderSize:]
	in := NewInterner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var back protocol.Request
		if err := DecodeRequest(h, payload, &back, in); err != nil {
			b.Fatal(err)
		}
	}
}

// testForm is a session form with one core, one live record and one
// remembered record filed under a port.
func testForm() []byte {
	run, _ := AppendCoreEntry(nil, "d", &protocol.CoreMsg{Name: "r", Kind: "register", Row: 1, Col: 2, Bits: 2})
	for _, memory := range []bool{false, true} {
		seq, at := uint64(3), 0
		if memory {
			seq = 5
		}
		run, at = AppendRecordEntry(run, memory, "d", seq)
		run = append(run, 0) // kind
		if memory {
			run = AppendPortEnd(run, protocol.PortRefMsg{Core: "r", Group: "q"})
		} else {
			run = AppendPinEnd(run, 1, 2, 3)
		}
		run = AppendPinEnd(AppendCount(run, 1), 4, 5, 6)
		run = AppendPip(AppendCount(run, 1), 1, 2, 3, 4)
		if memory {
			run = AppendPin(AppendPin(AppendCount(run, 2), 1, 2, 3), 4, 5, 6)
		} else {
			run = AppendCount(run, 0)
		}
		run = EndRecordEntry(AppendCount(run, 0), at)
	}
	return run
}

// TestRecordEntryRoundTrip: a record whose blob outgrows the one-byte length
// prefix (a long path and a way home) reads back field by field as it was
// appended, and every entry kind around it decodes.
func TestRecordEntryRoundTrip(t *testing.T) {
	buf, at := AppendRecordEntry(nil, true, "sess", 300)
	buf = AppendPinEnd(append(buf, 2), 1, 2, 3)
	buf = AppendPortEnd(AppendCount(buf, 1), protocol.PortRefMsg{Core: "c", Group: "d", Index: 2})
	buf = AppendCount(buf, 40)
	for i := 0; i < 40; i++ {
		buf = AppendPip(buf, i, -i, i+1, i+200)
	}
	buf = AppendPin(AppendPin(AppendCount(buf, 2), 1, 2, 3), 9, 9, 1)
	buf = EndRecordEntry(AppendPip(AppendCount(buf, 1), 2, 1, 7, 9), at)
	buf = AppendMarkEntry(buf, EntryGone, "sess", 12)
	buf = AppendMarkEntry(buf, EntryDrop, "other", 0)
	e, rest, err := NextEntry(buf)
	if err != nil || e.Tag != EntryMemory || string(e.Owner) != "sess" || e.Seq != 300 || len(e.Record) < 0x80 {
		t.Fatalf("first entry %+v, %v", e, err)
	}
	r := NewReader(e.Record)
	pin := func(row, col, wire int) {
		t.Helper()
		if r, c, w := r.Pin(); r != row || c != col || w != wire {
			t.Fatalf("pin (%d,%d) %d, want (%d,%d) %d", r, c, w, row, col, wire)
		}
	}
	if k := r.Byte(); k != 2 {
		t.Fatalf("kind %d", k)
	}
	if _, port := r.End(); port {
		t.Fatal("the source pin reads as a port")
	}
	pin(1, 2, 3)
	if n := r.Count(); n != 1 {
		t.Fatalf("%d sinks", n)
	}
	if ref, port := r.End(); !port || ref != (protocol.PortRefMsg{Core: "c", Group: "d", Index: 2}) {
		t.Fatalf("sink %+v, %v", ref, port)
	}
	if n := r.Count(); n != 40 {
		t.Fatalf("%d PIPs", n)
	}
	for i := 0; i < 40; i++ {
		if row, col, from, to := r.Pip(); row != i || col != -i || from != i+1 || to != i+200 {
			t.Fatalf("PIP %d reads (%d,%d) %d->%d", i, row, col, from, to)
		}
	}
	if n := r.Count(); n != 2 {
		t.Fatalf("%d At pins", n)
	}
	pin(1, 2, 3)
	pin(9, 9, 1)
	if n := r.Count(); n != 1 {
		t.Fatalf("%d home PIPs", n)
	}
	if row, col, from, to := r.Pip(); row != 2 || col != 1 || from != 7 || to != 9 || r.Err() != nil {
		t.Fatalf("home PIP (%d,%d) %d->%d, %v", row, col, from, to, r.Err())
	}
	if r.Byte(); r.Err() == nil {
		t.Fatal("a read past the blob has no error")
	}
	if e, rest, err = NextEntry(rest); err != nil || e.Tag != EntryGone || e.Seq != 12 {
		t.Fatalf("gone entry %+v, %v", e, err)
	}
	if e, rest, err = NextEntry(rest); err != nil || e.Tag != EntryDrop || string(e.Owner) != "other" || len(rest) != 0 {
		t.Fatalf("drop entry %+v, %v, %d bytes left", e, err, len(rest))
	}
}

// TestWriteMsgAllocatesNothing: a warm WriteScratch writes a small message
// as one copied Write and a large one as a vectored write, with nothing
// allocated. net.Buffers.WriteTo consumes its slice to zero capacity, so a
// scratch that kept appending into the consumed slice re-allocated on every
// message with a raw tail.
func TestWriteMsgAllocatesNothing(t *testing.T) {
	head := make([]byte, HeaderSize+8)
	for _, size := range []int{512, 4 * BufSize} {
		raw := bytes.Repeat([]byte{0x5A}, size)
		var ws WriteScratch
		if err := WriteMsg(io.Discard, &ws, head, raw); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := WriteMsg(io.Discard, &ws, head, raw); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("WriteMsg with a %d-byte tail allocates %v objects, want 0", size, n)
		}
	}
}

// TestDecodeRequestOneAllocation: a request's endpoints — pins and ports —
// decode into one slice, so a warm decode allocates once however many
// endpoints it carries, and a fresh request owns what it holds.
func TestDecodeRequestOneAllocation(t *testing.T) {
	port := protocol.EndPointMsg{Port: protocol.PortRefMsg{Core: "mul", Group: "p", Index: 2}, IsPort: true}
	for _, req := range []*protocol.Request{
		{ID: 1, Op: "route", Session: "dev0", Source: &port,
			Sinks: []protocol.EndPointMsg{pin(3, 4, 9), pin(5, 6, 7), port}},
		{ID: 2, Op: "unroute", Session: "dev0", Source: &port},
		{ID: 3, Op: "bus", Session: "dev0", Sources: []protocol.EndPointMsg{pin(1, 1, 1), pin(1, 2, 1)},
			Sinks: []protocol.EndPointMsg{pin(9, 1, 4), port}},
	} {
		wire, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ParseHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterner()
		var got protocol.Request
		if err := DecodeRequest(h, wire[HeaderSize:], &got, in); err != nil {
			t.Fatal(err)
		}
		again, _ := AppendRequest(nil, &got)
		if !bytes.Equal(again, wire) {
			t.Fatalf("%s does not round-trip", req.Op)
		}
		if n := testing.AllocsPerRun(100, func() {
			var r protocol.Request
			if err := DecodeRequest(h, wire[HeaderSize:], &r, in); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("decoding a %s request allocates %v objects, want 1", req.Op, n)
		}
	}
}

// TestDecodeResponseKeepsBoardName: a response decoded into one that already
// holds its board name keeps that string — a client seeds each response with
// the last board it read — so a warm route response decodes with nothing
// allocated; another name, or an error response, is decoded as sent.
func TestDecodeResponseKeepsBoardName(t *testing.T) {
	frame := func(resp protocol.Response) (Header, []byte) {
		head, raw, err := AppendResponse(nil, protocol.OpRoute, &resp)
		if err != nil {
			t.Fatal(err)
		}
		full := append(head, raw...)
		h, err := ParseHeader(full)
		if err != nil {
			t.Fatal(err)
		}
		return h, full[HeaderSize:]
	}
	h, payload := frame(protocol.Response{ID: 1, Board: "board0", Epoch: 2, FrameN: 1, Frames: []byte{1, 2}})
	last := strings.Clone("board0")
	var got protocol.Response
	if n := testing.AllocsPerRun(100, func() {
		got = protocol.Response{Board: last}
		if err := DecodeResponse(h, payload, &got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || unsafe.StringData(got.Board) != unsafe.StringData(last) || got.Epoch != 2 {
		t.Errorf("decoding board0 over board0: %v objects, board %q (kept %v), epoch %d; want 0, the same string, 2",
			n, got.Board, unsafe.StringData(got.Board) == unsafe.StringData(last), got.Epoch)
	}
	got = protocol.Response{Board: "board1"}
	if err := DecodeResponse(h, payload, &got); err != nil || got.Board != "board0" {
		t.Errorf("decoding board0 over board1: board %q, %v", got.Board, err)
	}
	h, payload = frame(protocol.Response{ID: 1, Err: "no", ErrorCode: protocol.CodeBadRequest})
	got = protocol.Response{Board: last}
	if err := DecodeResponse(h, payload, &got); err != nil || got.Board != "" || got.Err != "no" {
		t.Errorf("decoding an error over board0: board %q, err %q, %v", got.Board, got.Err, err)
	}
}
