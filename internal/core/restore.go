package core

import (
	"fmt"
	"slices"

	"repro/internal/device"
)

// Fleet failover needs to rebuild a dead board's routing on a fresh spare
// from nothing but a pin-level journal: the coordinator remembers each
// acknowledged connection (endpoints plus the exact PIP path that served
// it), and replays the records onto the spare's router. The hooks here are
// the two halves of that hand-off: SnapshotConnections exports the live
// records in a router-independent form, and AdoptConnection imports one
// into another router, replay-first through the same route-cache machinery
// that serves §3.3 relocations — the remembered path is swept for legality
// in O(path length) and committed verbatim, falling back to a full search
// only when the sweep fails.
//
// Every PIP the router sets belongs to a record, clock taps included, so a
// snapshot is the whole routing of the board.

// ConnectionRecord is the router-independent snapshot of one live
// connection: the pins its endpoints resolved to and the PIP path that was
// committed for it. A record without a Path (a route that committed no PIP,
// a peer that stripped it) adopts through search.
type ConnectionRecord struct {
	Source Pin
	Sinks  []Pin
	Path   []device.PIP
	kind   recKind // so the adopted record is the same kind of record
}

// SnapshotConnections exports every live connection as a
// ConnectionRecord, in insertion order. Port endpoints are flattened to the
// pins they resolve to right now, so the snapshot stays meaningful after
// the router (and any core instances living on it) are gone.
func (r *Router) SnapshotConnections() []ConnectionRecord {
	out := make([]ConnectionRecord, 0, r.conns.n)
	for c := r.conns.head; c != nil; c = c.next {
		if rec, ok := snapshotOf(c); ok {
			out = append(out, rec)
		}
	}
	return out
}

// snapshotOf is one record's export; false for a record whose source
// endpoint resolves to several pins, which no snapshot can carry.
func snapshotOf(c *Connection) (ConnectionRecord, bool) {
	src, sinks, ok := c.pins()
	return ConnectionRecord{Source: src, Sinks: append([]Pin(nil), sinks...),
		Path: append([]device.PIP(nil), c.Path...), kind: c.kind}, ok
}

// pins returns the pins c's endpoints resolved to when it was recorded with
// its path — the canonical replay frame — or, for a record without one,
// resolves them now.
func (c *Connection) pins() (Pin, []Pin, bool) {
	if len(c.sinkPins) > 0 {
		return c.srcPin, c.sinkPins, true
	}
	src, err := sourcePin(c.Source)
	return src, flattenPins(c.Sinks), err == nil
}

// Delta is what changed in a router's live connection table between two
// TakeDelta calls, keyed by record sequence number: a number is handed out
// once per router, in insertion order, and never reused, so a consumer that
// keeps its records ordered by it holds exactly SnapshotConnections.
type Delta struct {
	// Upserted are the records inserted or changed in place (a sink split
	// off by ReverseUnroute) that are still live, as they stand now. A
	// sequence number may repeat; the copies are equal.
	Upserted []SeqRecord
	// Retired are the sequence numbers of the records that left the table.
	// Apply them after Upserted: a record inserted and removed within one
	// delta appears only here.
	Retired []uint64
}

// SeqRecord is one exported record under its sequence number.
type SeqRecord struct {
	Seq uint64
	ConnectionRecord
}

// TakeDelta returns what changed in the live connection table since the
// previous call, at the cost of the records that changed — the export a
// journal applies after every acknowledged op where it used to copy
// SnapshotConnections whole. The first call returns every live record and
// turns the bookkeeping on; a router nobody asks keeps none.
func (r *Router) TakeDelta() Delta {
	t := &r.conns
	if t.log == nil {
		t.log = &deltaLog{}
		for c := t.head; c != nil; c = c.next {
			t.log.touched = append(t.log.touched, c)
		}
	}
	var d Delta
	for _, c := range t.log.touched {
		if !c.listed {
			continue // removed since; its number is in retired
		}
		if rec, ok := snapshotOf(c); ok {
			d.Upserted = append(d.Upserted, SeqRecord{Seq: c.seq, ConnectionRecord: rec})
		} else {
			d.Retired = append(d.Retired, c.seq)
		}
	}
	d.Retired = append(d.Retired, t.log.retired...)
	clear(t.log.touched) // drop the record pointers
	t.log.touched, t.log.retired = t.log.touched[:0], t.log.retired[:0]
	return d
}

// AdoptConnection imports one snapshot record into this router: it builds a
// retired pin-level connection carrying the remembered path and restores it
// through RestoreConnection, so the remembered PIPs are replayed with a
// legality sweep first and a full search is paid only when the sweep fails.
// A record whose endpoints already source a live identical connection is
// skipped (reported nil), which makes adoption idempotent against nets a
// re-implemented core has already routed.
func (r *Router) AdoptConnection(rec ConnectionRecord) error {
	if len(rec.Sinks) == 0 {
		return fmt.Errorf("core: adopting connection with no sinks")
	}
	sinks := make([]Pin, len(rec.Sinks))
	copy(sinks, rec.Sinks)
	sortPins(sinks)
	for c := r.conns.bucket(r.sourceKey(rec.Source)); c != nil; c = c.srcNext {
		r.stats.RecordsVisited++
		src, err := sourcePin(c.Source)
		if err != nil || src != rec.Source {
			continue
		}
		if slices.Equal(flattenPins(c.Sinks), sinks) {
			return nil // already live, e.g. routed by a replayed core's Implement
		}
	}
	sinkEPs := make([]EndPoint, len(rec.Sinks))
	for i, p := range rec.Sinks {
		sinkEPs[i] = p
	}
	c := &Connection{
		Source:   rec.Source,
		Sinks:    sinkEPs,
		Path:     append([]device.PIP(nil), rec.Path...),
		srcPin:   rec.Source,
		sinkPins: sinks,
		retired:  true,
		kind:     rec.kind,
	}
	if err := r.RestoreConnection(c); err != nil {
		return fmt.Errorf("core: adopting connection %v: %w", rec.Source, err)
	}
	return nil
}
