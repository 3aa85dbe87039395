// Package server implements jrouted: a long-running routing daemon hosting
// many named devices, each wrapped in a worker session with its own JRoute
// router, serving the full JRoute surface — connect, route, unroute, trace,
// batch/bus routing, core instantiation and replacement, and
// partial-bitstream readback — over the protocol defined in
// internal/server/protocol: a JSON hello, then binary v3 frames, one row of
// the op table per call.
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
// historical server.Request / server.Response spelling working for existing
// callers while the protocol package remains the single source of truth.
type (
	Request         = protocol.Request
	Response        = protocol.Response
	HelloMsg        = protocol.HelloMsg
	PinMsg          = protocol.PinMsg
	PortRefMsg      = protocol.PortRefMsg
	EndPointMsg     = protocol.EndPointMsg
	NetMsg          = protocol.NetMsg
	PipMsg          = protocol.PipMsg
	CoreMsg         = protocol.CoreMsg
	StatsMsg        = protocol.StatsMsg
	SessionStatsMsg = protocol.SessionStatsMsg
	OpStatsMsg      = protocol.OpStatsMsg
	FleetStatsMsg   = protocol.FleetStatsMsg
	BoardStatsMsg   = protocol.BoardStatsMsg
	BoardHWMsg      = protocol.BoardHWMsg

	GatewayStatsMsg   = protocol.GatewayStatsMsg
	GatewayTenantMsg  = protocol.GatewayTenantMsg
	GatewayBackendMsg = protocol.GatewayBackendMsg
)

// OpService is re-exported from the protocol package.
const OpService = protocol.OpService
