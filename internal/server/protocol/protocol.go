// Package protocol defines the wire surface of the jrouted routing service:
// the op table (ops.go), the request and response messages, and the
// structured error codes responses carry. It is imported by the server,
// the fleet coordinator, the gateway and the thin client, and holds no
// behaviour — only the contract.
//
// # Framing
//
// A connection speaks the binary frames of internal/server/protocol/v3
// from its first byte. The first frame must be the "hello" row of the op
// table: the client presents its tenant token and says whether it wants
// record deltas, and the server answers with the PIP bit layouts it
// decodes frames by (arch.Layouts). Any other first frame is answered with
// ErrorCode CodeVersion and the connection is closed; a later hello is
// CodeBadRequest.
//
// # Versioning
//
// The version byte of the v3 frame header is the one protocol version. A
// frame with the v3 magic and another version byte is answered CodeVersion.
// A client of the earlier two-framing protocol opens with an XHWIF-framed
// JSON hello; the server answers that first frame with one constant
// framed-JSON CodeVersion refusal, so the older client gets one clear typed
// error instead of undefined behaviour mid-session.
//
// # Error codes
//
// Responses carry a machine-readable ErrorCode alongside the human Err
// text: a Code, whose value is the one byte v3 carries it as and whose
// String is its name. Clients branch on the code (retry on CodeFailover,
// surface CodeCanceled as a context error, ...) instead of parsing error
// strings.
package protocol

// Code is a structured error code: its value is the byte a v3 response
// carries it as (the ABI tests pin each one; never renumber), and String
// is its name. CodeOK (0) means success and prints as "".
type Code byte

// Error codes.
const (
	CodeOK Code = iota
	// CodeBadRequest: the request was malformed (a second hello, missing
	// endpoint, core description, ...).
	CodeBadRequest
	// CodeUnknownOp: the op has no row in the op table, or the tier it
	// reached does not serve that row.
	CodeUnknownOp
	// CodeVersion: protocol version mismatch, or an op sent before the
	// hello.
	CodeVersion
	// CodeNoDevice: the named device session does not exist.
	CodeNoDevice
	// CodeBusy: backpressure — the session queue stayed full past the
	// enqueue timeout. Retryable.
	CodeBusy
	// CodeCanceled: the request's context was canceled while the op was
	// queued; the op was rejected without executing.
	CodeCanceled
	// CodeDeadline: the request's deadline expired while the op waited in
	// the bounded queue.
	CodeDeadline
	// CodeAdmission: fleet admission control rejected a new session (the
	// target board is at its session cap).
	CodeAdmission
	// CodeBoardDown: the session's board is dead and no spare is left to
	// fail over to.
	CodeBoardDown
	// CodeFailover: the op raced a board death; its board is being (or has
	// just been) replaced by a spare. Acknowledged state is preserved;
	// retry the op.
	CodeFailover
	// CodeRoute: the routing op itself failed (contention, bad endpoint,
	// unrouted net, ...). Not retryable without changing the request.
	CodeRoute
	// CodeInternal: serialization or device-state failure inside the
	// server.
	CodeInternal
	// CodeMalformed: a binary v3 frame failed the pre-parse filter (bad
	// magic, oversized length), and the connection is closed because the
	// stream is no longer frame-aligned; or its payload did not decode, and
	// the connection stays usable. Either way the frame was rejected before
	// dispatch.
	CodeMalformed
	// CodeUnauthorized: the hello bearer token was missing or unknown, or
	// an op targeted a session owned by a different tenant. Gateway tier
	// only; daemons without an authenticator never emit it.
	CodeUnauthorized
	// CodeQuota: a tenant quota rejected the request — the tenant is at its
	// session cap (connect) or its ops/s token bucket is empty (any op).
	// Rate rejections are retryable after a pause.
	CodeQuota
	// CodeUnknownAlias: connect named a device-class alias no registered
	// backend fleet serves. Gateway tier only.
	CodeUnknownAlias
)

var codeText = [...]string{"", "bad_request", "unknown_op", "version_mismatch", "no_device", "busy",
	"canceled", "deadline", "admission", "board_down", "failover", "route", "internal", "malformed",
	"unauthorized", "quota_exceeded", "unknown_alias"}

// String is the code's name; "" for CodeOK and for a byte no code has.
func (c Code) String() string {
	if int(c) < len(codeText) {
		return codeText[c]
	}
	return ""
}

// HelloMsg is the hello row's payload, both directions. The client
// presents its bearer token and whether it wants record deltas; the server
// answers with its PIP bit layouts.
type HelloMsg struct {
	// Token is the tenant bearer token, client to server only. Servers
	// without an authenticator ignore it; an authenticating gateway maps
	// it to a tenant and rejects the hello with CodeUnauthorized when it
	// is missing or unknown.
	Token string
	// Delta, client to server, asks for the record delta of every
	// acknowledged mutating op (Response.Delta). A tier that journals the
	// sessions behind it — the gateway — asks; a client does not, and its
	// responses stay as they were.
	Delta bool
	// Layouts, server to client, is arch.Layouts: a client refuses a
	// server whose PIP bit layouts differ from its own as version_mismatch.
	Layouts map[string]string
}

// Request is one service call. Op names a row of the op table (Ops), which
// documents the fields each op reads and answers; Session names the device
// session every session-scoped op targets.
type Request struct {
	ID      uint64
	Op      string
	Session string
	Source  *EndPointMsg
	Sinks   []EndPointMsg
	Sources []EndPointMsg
	Nets    []NetMsg
	Core    *CoreMsg
	Form    []byte // session_import: v3 delta entries, what a router holds of the session
	Hello   *HelloMsg

	// TimeoutMillis propagates the client context's remaining deadline.
	// The server bounds the op's queue wait (and rejects the op with
	// CodeDeadline / CodeCanceled) by it. 0 means no deadline.
	TimeoutMillis int64

	// Key is the fleet placement key for connect: the session is placed on
	// board slot Key mod fleet size. Nil means the key is derived from the
	// session name (FNV-1a), keeping placement a pure function of the
	// name. The gateway tier uses the same key (same FNV-1a default) to
	// pin the session to a backend fleet before the fleet uses it again
	// for board placement.
	Key *uint64

	// Tenant is the authenticated tenant the connection's hello token
	// resolved to. It never travels on the wire — the server stamps it on
	// every decoded request from per-connection state, so clients cannot
	// spoof it.
	Tenant string
	// WantDelta says the connection's hello asked for deltas
	// (HelloMsg.Delta); like Tenant, the server stamps it and it never
	// travels.
	WantDelta bool

	row *Op // Op resolved against the table; see Row
}

// Response answers one Request, matched by ID.
type Response struct {
	ID  uint64
	Err string
	// ErrorCode is the structured code for Err; see Code.
	ErrorCode Code
	Busy      bool // backpressure: queue full, retry later

	// Hello answers the hello row with the server's PIP bit layouts.
	Hello *HelloMsg

	// connect / devices
	Rows    int
	Cols    int
	Arch    string
	Devices []string

	// Board names the fleet board currently serving the session (connect
	// responses, fleet mode only).
	Board string

	// Epoch is the serving board's incarnation, bumped on every failover.
	// A client that sees the epoch change mid-session re-seeds its mirror
	// from a readback — the dirty-frame push chain broke at the swap.
	// 0 on static (non-fleet) sessions.
	Epoch uint64

	// Config is a full configuration stream (connect, readback).
	Config []byte

	// Frames is the partial stream of configuration frames dirtied by a
	// mutating op; FrameN counts them. Applying Frames to an up-to-date
	// mirror reproduces the server's bitstream exactly.
	Frames []byte
	FrameN int
	// Delta is what an acknowledged mutating op changed in the session
	// records behind it, in the v3 delta-entry encoding, for a connection
	// whose hello asked for deltas; nil for every other.
	Delta []byte

	Net   *NetMsg   // trace results
	Stats *StatsMsg // statsz
}

// PinMsg is a physical pin on the wire: row, column, and the
// architecture-independent wire number.
type PinMsg struct {
	Row  int
	Col  int
	Wire int
}

// PortRefMsg names a port of a server-side core instance.
type PortRefMsg struct {
	Core  string
	Group string
	Index int
}

// EndPointMsg is the wire form of core.EndPoint: its Port when IsPort,
// else its Pin.
type EndPointMsg struct {
	Pin    PinMsg
	Port   PortRefMsg
	IsPort bool
}

// NetMsg is one net: a source and its sinks. It doubles as the trace
// result, where Pips carries the net's PIPs in breadth-first order.
type NetMsg struct {
	Source EndPointMsg
	Sinks  []EndPointMsg
	Pips   []PipMsg
}

// PipMsg is one programmable interconnect point on the wire.
type PipMsg struct {
	Row  int
	Col  int
	From int
	To   int
}

// CoreMsg describes a core instance for core_new / core_replace. Kind
// selects the library core; the parameter fields used depend on it:
//
//	constmul: K, KBits      (replace retunes K)
//	register: Bits
type CoreMsg struct {
	Name  string
	Kind  string
	Row   int
	Col   int
	K     *uint64
	KBits int
	Bits  int
}

// StatsMsg is the statsz payload: per-session counters and per-op latency
// histograms, plus the fleet section when the daemon runs fleet mode and
// the gateway section when the process is a jgateway edge.
type StatsMsg struct {
	Sessions map[string]SessionStatsMsg `json:"sessions"`
	Fleet    *FleetStatsMsg             `json:"fleet,omitempty"`
	Wire     *WireStatsMsg              `json:"wire,omitempty"`
	Gateway  *GatewayStatsMsg           `json:"gateway,omitempty"`
}

// WireStatsMsg is the transport section of statsz: the connections that
// completed the hello, the frames they moved (the hello included), how many
// frames the v3 pre-parse filter rejected, and how many connections a
// panic on their goroutine ended.
type WireStatsMsg struct {
	Conns     int `json:"conns"`      // connections that completed the hello
	Malformed int `json:"malformed"`  // v3 frames rejected before dispatch
	FramesIn  int `json:"frames_in"`  // frames read
	FramesOut int `json:"frames_out"` // frames written
	BytesIn   int `json:"bytes_in"`   // payload bytes read
	BytesOut  int `json:"bytes_out"`  // payload bytes written
	Panics    int `json:"panics"`     // connections closed by a recovered panic
}

// SessionStatsMsg aggregates one device session.
type SessionStatsMsg struct {
	Routes          int `json:"routes"`
	RipUps          int `json:"rip_ups"` // PIPs ripped up (cleared)
	BatchIterations int `json:"batch_iterations"`
	CacheHits       int `json:"cache_hits"`     // routes served by path replay
	CacheMisses     int `json:"cache_misses"`   // cache lookups without an entry
	ReplayFails     int `json:"replay_fails"`   // replays that fell back to search
	NodesExplored   int `json:"nodes_explored"` // search states expanded (replays expand none)
	// Connection records the ops examined to find the ones they changed:
	// a constant per net touched, however many are live (core.Stats).
	RecordsVisited int `json:"records_visited"`
	// The scopes batch negotiation ran over (core.Stats.PartitionRegions).
	PartitionRegions int                   `json:"partition_regions"`
	Connections      int                   `json:"connections"` // live connection records
	FramesShipped    int                   `json:"frames_shipped"`
	BytesShipped     int                   `json:"bytes_shipped"`
	QueueDepth       int                   `json:"queue_depth"`
	Ops              map[string]OpStatsMsg `json:"ops"`
}

// OpStatsMsg is one operation's count and latency distribution.
type OpStatsMsg struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	Meanus float64 `json:"mean_us"`
}

// FleetStatsMsg is the fleet section of statsz: coordinator counters plus
// one entry per board slot.
type FleetStatsMsg struct {
	Boards           int                      `json:"boards"`      // active board slots
	SparesLeft       int                      `json:"spares_left"` // unconsumed spare boards
	Sessions         int                      `json:"sessions"`    // admitted logical sessions
	Failovers        int                      `json:"failovers"`   // completed board swaps
	FailoverFails    int                      `json:"failover_fails"`
	HealthProbes     int                      `json:"health_probes"`
	ProbeFails       int                      `json:"probe_fails"`
	AdmissionRejects int                      `json:"admission_rejects"`
	RestoredConns    int                      `json:"restored_conns"`                // connections replayed onto spares
	ReplayedPaths    int                      `json:"replayed_paths"`                // restores served by cached-path replay
	RestoreUs        int64                    `json:"failover_restore_us,omitempty"` // cumulative restore-routing time (cores + adoption, excl. push/audit)
	DownSlots        int                      `json:"down_slots"`                    // dead slots with no spare left
	Slots            map[string]BoardStatsMsg `json:"slots,omitempty"`
}

// BoardStatsMsg is one board slot: the board currently serving it, its
// health, its worker-session counters, and the configuration traffic its
// hardware has seen over the XHWIF link.
type BoardStatsMsg struct {
	Board    string          `json:"board"` // name of the serving board
	Epoch    uint64          `json:"epoch"`
	Healthy  bool            `json:"healthy"`
	Sessions int             `json:"sessions"` // logical sessions placed here
	Worker   SessionStatsMsg `json:"worker"`
	HW       BoardHWMsg      `json:"hw"`
}

// BoardHWMsg is the configuration-port traffic a fleet board's hardware has
// accepted.
type BoardHWMsg struct {
	FullConfigs    int `json:"full_configs"`
	PartialConfigs int `json:"partial_configs"`
	FramesWritten  int `json:"frames_written"`
	BytesWritten   int `json:"bytes_written"`
}

// GatewayStatsMsg is the edge section of statsz: coordinator counters plus
// one entry per tenant and per backend fleet. It travels inside the same
// statsz payload (v3 carries statsz as a JSON blob, so no binary ABI change
// is needed).
type GatewayStatsMsg struct {
	Backends         int `json:"backends"`          // registered backend fleets
	HealthyBackends  int `json:"healthy_backends"`  // currently in rotation
	DrainingBackends int `json:"draining_backends"` // marked draining or drained
	Sessions         int `json:"sessions"`          // admitted logical sessions
	Probes           int `json:"probes"`            // hello+statsz health probes run
	ProbeFails       int `json:"probe_fails"`
	Ejections        int `json:"ejections"` // backends removed from rotation by probes
	Readmits         int `json:"readmits"`  // ejected backends that probed healthy again
	Drains           int `json:"drains"`    // completed backend drains
	Handoffs         int `json:"handoffs"`  // sessions moved onto another backend
	HandoffFails     int `json:"handoff_fails"`
	RestoredNets     int `json:"restored_nets"` // live nets replayed onto handoff targets

	Tenants     map[string]GatewayTenantMsg  `json:"tenants,omitempty"`
	BackendsMap map[string]GatewayBackendMsg `json:"backends_detail,omitempty"`
}

// GatewayTenantMsg is one tenant's admission counters at the edge.
type GatewayTenantMsg struct {
	Sessions         int `json:"sessions"`          // live sessions admitted
	AdmittedOps      int `json:"admitted_ops"`      // ops that passed the token bucket
	RejectedOps      int `json:"rejected_ops"`      // ops refused with quota_exceeded
	RejectedSessions int `json:"rejected_sessions"` // connects refused at the session cap
}

// GatewayBackendMsg is one backend fleet as the gateway sees it.
type GatewayBackendMsg struct {
	Addr       string   `json:"addr"`
	Classes    []string `json:"classes"` // device-class aliases it serves
	Healthy    bool     `json:"healthy"`
	Draining   bool     `json:"draining"`
	Sessions   int      `json:"sessions"` // sessions currently pinned here
	Ops        int      `json:"ops"`      // requests forwarded
	Errors     int      `json:"errors"`   // forwarded requests that failed in transport
	ProbeFails int      `json:"probe_fails"`
}
