package core

import "slices"

// Options exposes the composed options to the external test package.
func (r *Router) Options() Options { return r.opt }

// SnapshotConnections exports every live connection as a
// ConnectionRecord, in insertion order, each a copy. Port endpoints are flattened to the
// pins they resolve to right now, so the snapshot stays meaningful after
// the router (and any core instances living on it) are gone.
func (r *Router) SnapshotConnections() []ConnectionRecord {
	out := make([]ConnectionRecord, 0, r.conns.n)
	for c := r.conns.head; c != nil; c = c.next {
		if rec, ok := snapshotOf(c); ok {
			rec.Sinks, rec.Path = slices.Clone(rec.Sinks), slices.Clone(rec.Path)
			rec.Home, rec.Ends = slices.Clone(rec.Home), slices.Clone(rec.Ends)
			out = append(out, rec)
		}
	}
	return out
}

// endPointEqual compares endpoints: pins by value, ports by identity.
func endPointEqual(a, b EndPoint) bool {
	switch x := a.(type) {
	case Pin:
		y, ok := b.(Pin)
		return ok && x == y
	case *Port:
		y, ok := b.(*Port)
		return ok && x == y
	default:
		return false
	}
}
