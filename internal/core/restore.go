package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/device"
)

// A session moves — a fleet slot fails over to a spare, a gateway drains a
// backend — as what its router holds: the live records and port memory.
// The hooks here are the two halves of that hand-off: Export (and TakeDelta,
// what changed since the last call) gives the records in a
// router-independent form, each with its owner and its way home, and
// Import places them on another router, adopting live ones replay-first
// through the same route-cache machinery that serves §3.3 relocations — the
// remembered path is swept for legality in O(path length) and committed
// verbatim, falling back to a full search only when the sweep fails.
//
// Every PIP the router sets belongs to a record, clock taps included, so an
// export is the whole routing of the board.

// ConnectionRecord is the router-independent snapshot of one connection:
// the pins its endpoints resolved to and the PIP path that was committed for
// it, who made it and, for a detoured net, its way home. A record without a
// Path (a route that committed no PIP, a peer that stripped it) adopts
// through search.
type ConnectionRecord struct {
	Source Pin
	Sinks  []Pin
	Path   []device.PIP
	// Home is the path a detoured restore searched away from (see
	// RestoreConnection); a restore of the record replays it first.
	Home []device.PIP
	// Ends are the endpoints as routed — the source, then the sinks — when
	// one is a port: what the record is remembered under, and what re-resolves
	// after a core moves. Nil when every endpoint is a pin.
	Ends  []EndPoint
	Owner uint8
	Kind  RecordKind
}

// RecordKind says which call made a record; a record adopts as its kind.
type RecordKind = recKind

// snapshotOf is one record's export, aliasing c's slices (the router never
// writes into them: it replaces them); false for a record whose source
// endpoint resolves to several pins, which no snapshot can carry.
func snapshotOf(c *Connection) (ConnectionRecord, bool) {
	src, sinks, ok := c.pins()
	rec := ConnectionRecord{Source: src, Sinks: sinks, Path: c.Path, Home: c.home, Owner: c.owner, Kind: c.kind}
	if !slices.ContainsFunc(c.Sinks, isPort) && !isPort(c.Source) {
		return rec, ok
	}
	rec.Ends = append([]EndPoint{c.Source}, c.Sinks...)
	return rec, ok
}

func isPort(e EndPoint) bool {
	_, ok := e.(*Port)
	return ok
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

// Delta is what changed in a router's connection records between two
// TakeDelta calls, keyed by record sequence number: a number is handed out
// once per router, in insertion order, and never reused, so a consumer that
// keeps its records ordered by it holds exactly what Export returns.
type Delta struct {
	// Upserted are the live records inserted or changed in place (a sink
	// split off by ReverseUnroute), as they stand now. A sequence number may
	// repeat; the copies are equal.
	Upserted []SeqRecord
	// Remembered are the records filed in port memory, each under a number
	// of its own (see Export).
	Remembered []SeqRecord
	// Retired are the records that left the live table or the memory.
	// Apply them last: a record inserted and removed within one delta
	// appears only here.
	Retired []Gone
}

// Gone names a record that left: its number and its owner.
type Gone struct {
	Seq   uint64
	Owner uint8
}

// SeqRecord is one exported record under its sequence number.
type SeqRecord struct {
	Seq uint64
	ConnectionRecord
}

// TakeDelta returns what changed in the records since the previous call,
// at the cost of the records that changed — the export a journal applies
// after every acknowledged op. The first call returns everything Export
// does and turns the bookkeeping on; a router nobody asks keeps none. The
// delta and the slices in it are the router's: read them before the next
// call, and write into none of them.
func (r *Router) TakeDelta() Delta {
	t := &r.conns
	if t.log == nil {
		t.log = &deltaLog{}
		for c := t.head; c != nil; c = c.next {
			t.log.touched = append(t.log.touched, c)
		}
		t.log.remembered = r.memory()
	}
	d := &t.log.delta
	d.Upserted, d.Remembered, d.Retired = d.Upserted[:0], d.Remembered[:0], d.Retired[:0]
	for _, c := range t.log.touched {
		if !c.listed {
			continue // removed since; its number is in retired
		}
		if rec, ok := snapshotOf(c); ok {
			d.Upserted = append(d.Upserted, SeqRecord{c.seq, rec})
		} else {
			d.Retired = append(d.Retired, Gone{c.seq, c.owner})
		}
	}
	for _, c := range t.log.remembered {
		if rec, ok := snapshotOf(c); ok && c.retired {
			d.Remembered = append(d.Remembered, SeqRecord{c.seq, rec})
		}
	}
	d.Retired = append(d.Retired, t.log.retired...)
	clear(t.log.touched) // drop the record pointers
	clear(t.log.remembered)
	t.log.touched, t.log.remembered, t.log.retired = t.log.touched[:0], t.log.remembered[:0], t.log.retired[:0]
	return *d
}

// Export returns the live records and the remembered ones (port memory),
// each in sequence order: everything a session form holds of the router.
// A remembered record is numbered when it is filed, so each port's memory
// lists its records in sequence order too.
func (r *Router) Export() (live, remembered []SeqRecord) {
	for c := r.conns.head; c != nil; c = c.next {
		if rec, ok := snapshotOf(c); ok {
			live = append(live, SeqRecord{c.seq, rec})
		}
	}
	for _, c := range r.memory() {
		if rec, ok := snapshotOf(c); ok {
			remembered = append(remembered, SeqRecord{c.seq, rec})
		}
	}
	return live, remembered
}

// memory lists the remembered records once each, in sequence order.
func (r *Router) memory() []*Connection {
	var out []*Connection
	for _, list := range r.remembered {
		out = append(out, list...)
	}
	slices.SortFunc(out, func(a, b *Connection) int { return cmp.Compare(a.seq, b.seq) })
	return slices.Compact(out)
}

// LearnPaths learns records' paths into the exact route cache, so that a
// route to the same endpoints — a core's Implement, ahead of an Import of
// the nets it routes — replays them rather than searching anew.
func (r *Router) LearnPaths(recs []SeqRecord) {
	for _, rec := range recs {
		r.learnExact(&Connection{Path: rec.Path, srcPin: rec.Source, sinkPins: rec.Sinks, kind: rec.Kind})
	}
}

// Import places records another router exported: each live record is
// adopted replay-first, in the order given, then each remembered one is
// filed under its ports for Reconnect. On an error the records placed so
// far stay; the caller takes them back.
func (r *Router) Import(live, remembered []SeqRecord) error {
	for _, rec := range live {
		if err := r.AdoptConnection(rec.ConnectionRecord); err != nil {
			return err
		}
	}
	for _, rec := range remembered {
		c := retiredRecord(rec.ConnectionRecord)
		c.home = rec.Home
		r.remember(c)
	}
	return nil
}

// AdoptConnection imports one snapshot record into this router: it builds a
// retired connection carrying the remembered path and restores it through
// RestoreConnection, so the remembered PIPs are replayed with a legality
// sweep first and a full search is paid only when the sweep fails. The
// record keeps its kind, owner and way home. A record whose endpoints
// already source a live identical connection is skipped (reported nil),
// which makes adoption idempotent against nets a re-implemented core has
// already routed.
func (r *Router) AdoptConnection(rec ConnectionRecord) error {
	if len(rec.Sinks) == 0 {
		return fmt.Errorf("core: adopting connection with no sinks")
	}
	c := retiredRecord(rec)
	for o := r.conns.bucket(r.sourceKey(rec.Source)); o != nil; o = o.srcNext {
		r.stats.RecordsVisited++
		if src, err := sourcePin(o.Source); err == nil && src == rec.Source && slices.Equal(flattenPins(o.Sinks), c.sinkPins) {
			return nil // already live, e.g. routed by a replayed core's Implement
		}
	}
	mark := r.conns.tail
	if err := r.RestoreConnection(c); err != nil {
		return fmt.Errorf("core: adopting connection %v: %w", rec.Source, err)
	}
	if nc := r.conns.tail; nc != mark { // a clock whose taps were all on makes none
		nc.home = rec.Home
	}
	return nil
}

// retiredRecord builds the retired connection a record describes: its
// endpoints as routed, in the frame its path was recorded in.
func retiredRecord(rec ConnectionRecord) *Connection {
	c := &Connection{Path: rec.Path, srcPin: rec.Source, sinkPins: slices.Clone(rec.Sinks),
		retired: true, kind: rec.Kind, owner: rec.Owner}
	sortPins(c.sinkPins)
	if len(rec.Ends) > 0 {
		c.Source, c.Sinks = rec.Ends[0], slices.Clone(rec.Ends[1:])
		return c
	}
	c.Source = rec.Source
	for _, p := range rec.Sinks {
		c.Sinks = append(c.Sinks, p)
	}
	return c
}

// DropOwner takes everything owner o holds off the router: its live records
// are unrouted — the PIPs each set, newest record first — and its remembered
// ones forgotten. Nets that cores own go with them; the cores' logic is
// their own to clear.
func (r *Router) DropOwner(o uint8) {
	for c := r.conns.tail; c != nil; {
		prev := c.prev
		if c.owner == o {
			r.unwind(c.Path)
			r.conns.remove(c)
		}
		c = prev
	}
	for _, c := range r.memory() {
		if c.owner == o {
			r.forget(c)
		}
	}
}
