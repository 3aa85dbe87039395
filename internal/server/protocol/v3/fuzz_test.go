package v3

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/server/protocol"
)

// seedFrames builds a corpus of well-formed v3 frames (requests and
// responses across every record shape) so the fuzzer starts from valid
// encodings and mutates from there.
func seedFrames(t interface{ Fatal(...interface{}) }) [][]byte {
	key := uint64(7)
	reqs := []protocol.Request{
		{ID: 1, Op: "connect", Session: "s", TimeoutMillis: 250, Key: &key},
		{ID: 2, Op: "devices"},
		{ID: 3, Op: "statsz"},
		{ID: 4, Op: "readback", Session: "s"},
		{ID: 5, Op: "route", Session: "s",
			Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 1, Col: 2, Wire: 7}},
			Sinks:  []protocol.EndPointMsg{pin(3, 4, 9), port("m0", "q", 1)}},
		{ID: 6, Op: "bus", Session: "s",
			Sources: []protocol.EndPointMsg{pin(0, 1, 2)},
			Sinks:   []protocol.EndPointMsg{pin(3, 4, 5)}},
		{ID: 7, Op: "batch", Session: "s",
			Nets: []protocol.NetMsg{{
				Source: pin(0, 1, 3),
				Sinks:  []protocol.EndPointMsg{pin(2, 2, 5)},
				Pips:   []protocol.PipMsg{{Row: 1, Col: 2, From: 3, To: 4}}}}},
		{ID: 8, Op: "unroute", Session: "s",
			Source: &protocol.EndPointMsg{Pin: protocol.PinMsg{Row: 5, Col: 6, Wire: 7}}},
		{ID: 9, Op: "core_replace", Session: "s",
			Core: &protocol.CoreMsg{Name: "m", Kind: "constmul", Row: 1, Col: 2, K: &key, KBits: 8}},
		{ID: 10, Op: "gw_drain", Session: "be0"},
		{ID: 11, Op: "session_import", Session: "d", Form: testForm()},
		{ID: 12, Op: "hello", Hello: &protocol.HelloMsg{Token: "tk", Delta: true}},
	}
	var out [][]byte
	for i := range reqs {
		b, err := AppendRequest(nil, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}

	resps := []struct {
		op   byte
		resp protocol.Response
	}{
		{protocol.OpConnect, protocol.Response{ID: 1, Rows: 4, Cols: 4, Arch: "virtex", Config: []byte{1, 2, 3}}},
		{protocol.OpDevices, protocol.Response{ID: 2, Devices: []string{"a", "b"}}},
		{protocol.OpGwDrain, protocol.Response{ID: 10, Devices: []string{"v1000-class/s0"}}},
		{protocol.OpRoute, protocol.Response{ID: 5, Board: "b0", Epoch: 3, FrameN: 2, Frames: []byte{0xAA, 0xBB}}},
		{protocol.OpRoute, protocol.Response{ID: 5, Err: "nope", ErrorCode: protocol.CodeRoute}},
		{protocol.OpRoute, protocol.Response{ID: 5, Board: "b0", Epoch: 3, FrameN: 1, Frames: []byte{0xAA},
			Delta: []byte{EntryGone, 0x01, 'd', 0x07}}},
		{protocol.OpTrace, protocol.Response{ID: 6, Net: &protocol.NetMsg{
			Source: pin(1, 2, 3), Sinks: []protocol.EndPointMsg{pin(4, 5, 6)}}}},
		{protocol.OpHello, protocol.Response{ID: 12, Hello: &protocol.HelloMsg{
			Layouts: map[string]string{"virtex": "ab", "kestrel": "cd"}}}},
	}
	for _, rc := range resps {
		head, raw, err := AppendResponse(nil, rc.op, &rc.resp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append(append([]byte(nil), head...), raw...))
	}
	return out
}

// FuzzDecodeV3 throws arbitrary bytes at the full server-side ingest path:
// header filter, then request decode; and at the client-side response
// decode. The invariants under fuzz are (1) no panic, no unbounded
// allocation; (2) anything that decodes re-encodes to a frame that decodes
// to an equal message (no state smuggled past the codec, no port read back
// as a pin), and a request's re-encoding is canonical.
func FuzzDecodeV3(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	// A few deliberately hostile seeds: garbage magic, wrong version,
	// absurd length, truncated payload.
	f.Add([]byte("XXXXnot a frame at all"))
	bad := make([]byte, HeaderSize)
	PutHeader(bad, Header{Op: protocol.OpRoute, ID: 1, Len: 64})
	bad[4] = 9
	f.Add(bad)
	f.Add(append(hdr(protocol.OpBatch, 0, 2, 12), 0xFF, 0xFF))
	// Pins and ports mixed in one list.
	for _, req := range []protocol.Request{
		{ID: 13, Op: "bus", Session: "s",
			Sources: []protocol.EndPointMsg{port("m0", "p", 0), pin(0, 1, 2), port("r", "q", 3)},
			Sinks:   []protocol.EndPointMsg{pin(3, 4, 5), port("m1", "x", 1), pin(6, 7, 8)}},
		{ID: 14, Op: "batch", Session: "s", Nets: []protocol.NetMsg{
			{Source: port("m0", "p", 1), Sinks: []protocol.EndPointMsg{pin(2, 2, 5), port("r", "d", 0)}},
			{Source: pin(0, 1, 3), Sinks: []protocol.EndPointMsg{port("m1", "x", 2)},
				Pips: []protocol.PipMsg{{Row: 1, Col: 2, From: 3, To: 4}}}}},
	} {
		b, err := AppendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch [HeaderSize]byte
		h, err := ReadHeader(bytes.NewReader(data), &scratch)
		if err != nil {
			return // filtered before any allocation: the point of the filter
		}
		payload, err := ReadPayloadInto(bytes.NewReader(data[HeaderSize:]), h, nil)
		if err != nil {
			return
		}

		if h.Flags&FlagResp != 0 {
			var resp protocol.Response
			if err := DecodeResponse(h, payload, &resp); err != nil {
				return
			}
			head, raw, err := AppendResponse(nil, h.Op, &resp)
			if err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
			reFrame := append(append([]byte(nil), head...), raw...)
			h2, err := ParseHeader(reFrame)
			if err != nil {
				t.Fatalf("re-encoded response has bad header: %v", err)
			}
			var resp2 protocol.Response
			if err := DecodeResponse(h2, reFrame[HeaderSize:], &resp2); err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if !reflect.DeepEqual(resp, resp2) {
				t.Fatalf("response changed in a round trip:\n%+v\n%+v", resp, resp2)
			}
			return
		}

		in := NewInterner()
		var req protocol.Request
		if err := DecodeRequest(h, payload, &req, in); err != nil {
			return
		}
		re, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		h2, err := ParseHeader(re)
		if err != nil {
			t.Fatalf("re-encoded request has bad header: %v", err)
		}
		var req2 protocol.Request
		if err := DecodeRequest(h2, re[HeaderSize:], &req2, in); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("request changed in a round trip:\n%+v\n%+v", req, req2)
		}
		re2, err := AppendRequest(nil, &req2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("request encode not canonical after round trip (%v)", err)
		}
	})
}
