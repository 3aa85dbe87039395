// Package server implements jrouted: a long-running routing daemon hosting
// many named devices, each wrapped in a worker session with its own JRoute
// router, serving the full JRoute surface — connect, route, unroute, trace,
// batch/bus routing, core instantiation and replacement, and
// partial-bitstream readback — over the protocol defined in
// internal/server/protocol: binary v3 frames from the first byte, the first
// of them a hello, one row of the op table per call.
//
// Concurrency model: every device session owns one worker goroutine and a
// bounded request queue. Requests against one session are serialized in
// arrival order; requests against different sessions run concurrently. A
// full queue pushes back: the submitter waits up to the enqueue timeout —
// bounded further by the request's own deadline — and then receives a busy
// response, which clients surface as ErrBusy. A request whose context is
// canceled or expired while queued is rejected with a typed error code
// (CodeCanceled / CodeDeadline) instead of blocking or executing late.
//
// Partial-reconfiguration push: every mutating operation's response carries
// the configuration frames the operation dirtied, so a thin client can
// mirror the server's bitstream incrementally without ever pulling a full
// readback.
//
// Fleet mode: a coordinator (internal/server/fleet) may be attached with
// SetFleet, in which case per-device ops are sharded over a board fleet
// with health checks and automatic failover; see that package.
package server

import "repro/internal/server/protocol"

// The wire types live in internal/server/protocol; these aliases keep the
// server.* spelling of the types benchmark/ uses.
type (
	Request         = protocol.Request
	Response        = protocol.Response
	EndPointMsg     = protocol.EndPointMsg
	SessionStatsMsg = protocol.SessionStatsMsg
)
