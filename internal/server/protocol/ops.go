package protocol

import "fmt"

// Scope says which tier answers an op and what Request.Session names.
type Scope uint8

const (
	// ScopeConn ops are answered by the server the connection terminates
	// at, inline, with no session behind them.
	ScopeConn Scope = iota
	// ScopeSession ops target the device session Request.Session names:
	// they run on that session's worker in arrival order (through the fleet
	// coordinator or the gateway when one is attached).
	ScopeSession
	// ScopeAdmin ops are gateway administration: only a gateway answers
	// them, only for an admin tenant, and Request.Session names a backend.
	ScopeAdmin
)

// Op bytes: an op's code in the binary v3 frame header. Pinned by the ABI
// tests; never renumber.
const (
	OpConnect        byte = 0x01
	OpDevices        byte = 0x02
	OpStatsz         byte = 0x03
	OpReadback       byte = 0x04
	OpHello          byte = 0x05
	OpRoute          byte = 0x10
	OpBus            byte = 0x11
	OpBusBatch       byte = 0x12
	OpBatch          byte = 0x13
	OpUnroute        byte = 0x14
	OpReverseUnroute byte = 0x15
	OpTrace          byte = 0x16
	OpReverseTrace   byte = 0x17
	OpCoreNew        byte = 0x20
	OpCoreReplace    byte = 0x21
	OpSessionImport  byte = 0x22
	OpGwDrain        byte = 0x30
)

// Op is one row of the op table.
type Op struct {
	Name  string // Request.Op, and the key of the statsz per-op section
	Byte  byte   // v3 header op byte
	Scope Scope
	// Mutating ops change device configuration: a successful response
	// carries the frames the op dirtied (Frames, FrameN), and the worker
	// hands what the op changed in its records to the fleet journal and, as
	// Response.Delta, to a tier that asked for it.
	Mutating bool
}

// Ops is the service's op table — every op the protocol knows, one row
// each, laid out as the paper's API (§3) with the service's own plumbing
// around it. The v3 codec, the server, the fleet coordinator, the gateway
// and the worker all resolve an op here; a name with no row is answered
// CodeUnknownOp on every tier.
//
// Of the paper's four levels of routing control (§3.1) the service reaches
// level 4 — source to sink, the router chooses the wires — and the batch
// extension of §6. Levels 1–3 (single PIP, path, template) exist on
// core.Router and have no row yet.
var Ops = []Op{
	// The service itself.
	//   hello   (Token, Delta)    -> Layouts: a connection's first frame,
	//                                and only its first
	//   devices ()                -> Devices: the hosted (fleet: admitted) session names
	//   statsz  ()                -> Stats
	//   connect (Session [, Key]) -> Rows, Cols, Arch, Config, Epoch, Board;
	//                                opens the session, in fleet mode placing it by Key
	//   readback (Session)        -> Config: the full configuration stream
	{"hello", OpHello, ScopeConn, false},
	{"devices", OpDevices, ScopeConn, false},
	{"statsz", OpStatsz, ScopeConn, false},
	{"connect", OpConnect, ScopeSession, false},
	{"readback", OpReadback, ScopeSession, false},

	// §3.1 level 4, automatic routing.
	//   route     (Session, Source, Sinks)   one sink: RouteNet; several: RouteFanout
	//   bus       (Session, Sources, Sinks)  RouteBus, bit i to bit i, greedy
	//   bus_batch (Session, Sources, Sinks)  RouteBusBatch, the same bus negotiated
	//   batch     (Session, Nets)            RouteBatch, §6: all nets negotiated together
	{"route", OpRoute, ScopeSession, true},
	{"bus", OpBus, ScopeSession, true},
	{"bus_batch", OpBusBatch, ScopeSession, true},
	{"batch", OpBatch, ScopeSession, true},

	// §3.2 cores and ports, §3.3 run-time replacement. An endpoint may name
	// a port of a core created here instead of a pin.
	//   core_new     (Session, Core)  instantiate, place and implement
	//   core_replace (Session, Core)  unroute, retune/relocate, re-implement;
	//                                 port memory reconnects what was connected
	{"core_new", OpCoreNew, ScopeSession, true},
	{"core_replace", OpCoreReplace, ScopeSession, true},

	// §3.3 the unrouter.
	//   unroute         (Session, Source)  the whole net the source drives
	//   reverse_unroute (Session, Source)  Source is a sink pin: only its branch
	{"unroute", OpUnroute, ScopeSession, true},
	{"reverse_unroute", OpReverseUnroute, ScopeSession, true},

	// §3.5 debugging.
	//   trace         (Session, Source) -> Net: the whole net, PIPs breadth-first
	//   reverse_trace (Session, Source) -> Net: Source is a sink pin: its branch
	{"trace", OpTrace, ScopeSession, false},
	{"reverse_trace", OpReverseTrace, ScopeSession, false},

	// A session moved whole.
	//   session_import (Session, Form)  replace what the session holds here
	//                                   with the form, all or nothing: cores,
	//                                   then live records, then port memory
	{"session_import", OpSessionImport, ScopeSession, true},

	// Gateway administration.
	//   gw_drain (Session = backend name) -> Devices: the sessions moved off
	//                                        the backend by state handoff
	{"gw_drain", OpGwDrain, ScopeAdmin, false},
}

// byByte indexes Ops by op byte, so the v3 decoder resolves a row with one
// array load.
var byByte [256]*Op

func init() {
	for i := range Ops {
		byByte[Ops[i].Byte] = &Ops[i]
	}
}

// OpByByte returns the row for a v3 op byte, or nil.
func OpByByte(b byte) *Op { return byByte[b] }

// OpByName returns the row for an op name, or nil.
func OpByName(name string) *Op {
	for i := range Ops {
		if Ops[i].Name == name {
			return &Ops[i]
		}
	}
	return nil
}

// SetOp names the request's op by its row.
func (r *Request) SetOp(op *Op) { r.Op, r.row = op.Name, op }

// Row returns the request's row of the op table, or nil when Op names no
// row. The row is resolved once — by the v3 decoder from the header byte,
// or here by name on first use — and travels with the request and its
// copies through every tier.
func (r *Request) Row() *Op {
	if r.row == nil || r.row.Name != r.Op {
		r.row = OpByName(r.Op)
	}
	return r.row
}

// UnknownOp answers a request whose Op names no row, or a row the tier the
// request reached does not serve.
func UnknownOp(req *Request) *Response {
	msg := "protocol: unknown op %q"
	if req.Row() != nil {
		msg = "protocol: op %q is not served by this tier"
	}
	return &Response{ID: req.ID, ErrorCode: CodeUnknownOp, Err: fmt.Sprintf(msg, req.Op)}
}
