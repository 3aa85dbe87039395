package core

import (
	"fmt"

	"repro/internal/oracle"
)

// This file wires the router to the independent bitstream-level oracle.
// With Options.ParanoidVerify set, every top-level routing call (manual
// levels 1–3, clock, route, fanout, bus, batch, unroute, reconnect, restore,
// rip-up) is followed by a full oracle audit: the current configuration is
// serialized, re-extracted from raw frames only, structurally checked, and compared
// against the endpoint claims of every live connection record. The router
// never hands its own routing state to the oracle — only frames and
// endpoint claims cross the boundary.
//
// The depth counter keeps composite calls (RouteBus calling RouteNet,
// Reconnect calling RestoreConnection) from auditing half-finished work:
// only the outermost call verifies. A manual call that leaves a
// mid-construction antenna fails its audit like any other call: under
// ParanoidVerify, build a path by hand with one RoutePath.

// enterOp marks the start of a (possibly nested) verified routing call. The
// outermost one notes whether any frame is dirty, for backToEntry.
func (r *Router) enterOp() {
	if r.opDepth == 0 {
		r.entryClean, r.unwindLost = r.Dev.DirtyFrameCount() == 0, false
	}
	r.opDepth++
}

// backToEntry is called by an all-or-nothing call that failed and has just
// unwound every PIP it set. When that call is the outermost one, no unwind
// since entry was refused a PIP, and no frame was dirty at entry, the
// configuration is bit for bit what it was, so the frames the attempt
// touched are not dirty: a service that ships the dirty set after every op
// has nothing to ship for the failed one, and nothing lags the router.
// Otherwise the flags stay — a frame sent twice costs time, a frame never
// sent costs a board.
func (r *Router) backToEntry() {
	if r.opDepth == 1 && r.entryClean && !r.unwindLost {
		r.Dev.ClearDirty()
	}
}

// exitOp closes a verified routing call; the outermost successful call
// runs the oracle audit and surfaces any violation as the call's error.
func (r *Router) exitOp(err *error) {
	r.opDepth--
	if r.opDepth == 0 && r.opt.ParanoidVerify && *err == nil {
		if verr := r.VerifyOracle(); verr != nil {
			*err = fmt.Errorf("core: paranoid verify: %w", verr)
		}
	}
}

// OracleClaims exports the endpoint-level claims of every live connection
// record — the only router information the oracle is allowed to see.
func (r *Router) OracleClaims() []oracle.Claim {
	var out []oracle.Claim
	for c := r.conns.head; c != nil; c = c.next {
		src, err := sourcePin(c.Source)
		if err != nil {
			continue
		}
		cl := oracle.Claim{Source: oracle.Pin{Row: src.Row, Col: src.Col, W: src.W}}
		for _, p := range flattenPins(c.Sinks) {
			cl.Sinks = append(cl.Sinks, oracle.Pin{Row: p.Row, Col: p.Col, W: p.W})
		}
		out = append(out, cl)
	}
	return out
}

// VerifyOracle serializes the device configuration and audits it with the
// bitstream oracle: structural invariants (single driver, no antennas, no
// orphan roots, no loops), physical continuity of every live claim, and
// coverage — every net in the frames roots at a claimed source.
func (r *Router) VerifyOracle() error {
	stream, err := r.Dev.FullConfig()
	if err != nil {
		return err
	}
	return oracle.Audit(r.Dev.A, stream, r.OracleClaims(), true)
}
