package core

import (
	"fmt"

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
// Clock nets are exempt. RouteClock sets dedicated global-clock PIPs and
// records no Connection, so a snapshot never carries them and adoption
// never restores them: after a failover a clock is back on the spare only
// because the core that needs it was re-implemented there and called
// RouteClock again. A journal of pin-level routes alone does not rebuild
// clock distribution.

// ConnectionRecord is the router-independent snapshot of one live
// connection: the pins its endpoints resolved to and the PIP path that was
// committed for it. A record without a Path (a route that committed no PIP,
// a peer that stripped it) adopts through search.
type ConnectionRecord struct {
	Source Pin
	Sinks  []Pin
	Path   []device.PIP
}

// SnapshotConnections exports every live (non-retired) connection as a
// ConnectionRecord. Port endpoints are flattened to the pins they resolve
// to right now, so the snapshot stays meaningful after the router (and any
// core instances living on it) are gone. Clock nets are not in it (see
// the note at the top of this file).
func (r *Router) SnapshotConnections() []ConnectionRecord {
	out := make([]ConnectionRecord, 0, len(r.conns))
	for _, c := range r.conns {
		if c.retired {
			continue
		}
		rec := ConnectionRecord{}
		if len(c.sinkPins) > 0 {
			// Recorded with its path at route time: pins and path are
			// already the canonical replay frame.
			rec.Source = c.srcPin
			rec.Sinks = append([]Pin(nil), c.sinkPins...)
			rec.Path = append([]device.PIP(nil), c.Path...)
		} else {
			src, err := sourcePin(c.Source)
			if err != nil {
				continue // multi-pin source endpoint: not snapshottable
			}
			rec.Source = src
			rec.Sinks = flattenPins(c.Sinks)
		}
		out = append(out, rec)
	}
	return out
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
	for _, c := range r.conns {
		if c.retired {
			continue
		}
		src, err := sourcePin(c.Source)
		if err != nil || src != rec.Source {
			continue
		}
		if pinsEqual(flattenPins(c.Sinks), sinks) {
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
	}
	if err := r.RestoreConnection(c); err != nil {
		return fmt.Errorf("core: adopting connection %v: %w", rec.Source, err)
	}
	return nil
}

func pinsEqual(a, b []Pin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
