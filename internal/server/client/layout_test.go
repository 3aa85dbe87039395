package client

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// TestHelloRejectsForeignLayout answers the hello with a server whose PIP
// bit layouts are not the client's. A permuted layout keeps bytes-per-tile,
// so nothing downstream would notice: the mirror would decode every pushed
// frame into the wrong PIPs. The client must refuse at the hello.
func TestHelloRejectsForeignLayout(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		var hdr [v3.HeaderSize]byte
		h, err := v3.ReadHeader(srv, &hdr)
		if err != nil {
			return
		}
		payload, err := v3.ReadPayloadInto(srv, h, nil)
		var req protocol.Request
		if err != nil || v3.DecodeRequest(h, payload, &req, nil) != nil || req.Op != "hello" {
			return
		}
		head, _, err := v3.AppendResponse(nil, h.Op, &protocol.Response{ID: req.ID, Hello: &protocol.HelloMsg{
			Layouts: map[string]string{"virtex": "0123456789abcdef", "kestrel": "0123456789abcdef"}}})
		if err == nil {
			_, _ = srv.Write(head)
		}
	}()
	c := NewClient(cli)
	defer c.Close()
	err := c.Hello(context.Background())
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("hello from a server of another layout: got %v, want ErrVersionMismatch", err)
	}
}
