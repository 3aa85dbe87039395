package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/protocol"
)

// TestHelloRejectsForeignLayout answers the hello with a server whose PIP
// bit layouts are not the client's. A permuted layout keeps bytes-per-tile,
// so nothing downstream would notice: the mirror would decode every pushed
// frame into the wrong PIPs. The client must refuse at the handshake.
func TestHelloRejectsForeignLayout(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		_, payload, err := jbits.ReadFrame(srv)
		var req server.Request
		if err != nil || json.Unmarshal(payload, &req) != nil {
			return
		}
		resp := fmt.Sprintf(`{"id":%d,"hello":{"version":%d,"caps":[%q],`+
			`"layouts":{"virtex":"0123456789abcdef","kestrel":"0123456789abcdef"}}}`,
			req.ID, protocol.Version, protocol.CapBinV3)
		_ = jbits.WriteFrame(srv, server.OpService|jbits.RespFlag, []byte(resp))
	}()
	c := NewClient(cli)
	defer c.Close()
	err := c.Hello(context.Background())
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("hello from a server of another layout: got %v, want ErrVersionMismatch", err)
	}
}
