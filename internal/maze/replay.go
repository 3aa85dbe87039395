package maze

import (
	"fmt"

	"repro/internal/device"
)

// Replay validates a remembered PIP path against the device's *current*
// occupancy and returns it as a Route ready to commit — the fast path of
// the relocation-aware route cache. Where a full search explores the
// routing graph, a replay is a single O(path-length) legality sweep: the
// paper's §3.1 level-3 observation that on a regular fabric a route is a
// sequence of relative hops, so a path learned once can be re-applied (and
// re-applied *shifted*, for relocated cores) without searching.
//
// sources are the tracks of the net the path grafts onto — at minimum the
// net's source track; for branch reconnection, every track of the live
// net (the caller's netTracks). Each PIP is shifted by (dRow, dCol) and
// checked for: existence on this array, architecture legality, tap/drive
// legality at its tile, an undriven target, and connectivity (its source
// track must be a net track or the target of an earlier PIP in the path).
// Any failure aborts the replay with ErrUnroutable — the caller falls back
// to search, so a stale cache entry can never corrupt routing state.
//
// The sweep allocates nothing beyond the returned Route: occupancy and
// connectivity marks live in a pooled epoch-stamped set indexed by the
// compact device.TrackIndex, exactly like the search arena.
//
// Replay never turns PIPs on; committing (and rolling back) the returned
// Route is the caller's concern, so a replayed route configures the device
// byte-identically to a cold search that found the same path.
func Replay(dev *device.Device, sources []device.Track, pips []device.PIP, dRow, dCol int) (*Route, error) {
	if len(pips) == 0 {
		return nil, fmt.Errorf("maze: empty replay path: %w", ErrUnroutable)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("maze: replay with no net sources: %w", ErrUnroutable)
	}
	marks := getMarkSet(dev.NumTracks())
	defer putMarkSet(marks)
	marks.reset()
	for _, s := range sources {
		marks.add(dev.TrackIndex(s))
	}

	route := &Route{PIPs: make([]device.PIP, len(pips))}
	for i, p := range pips {
		q := device.PIP{Row: p.Row + dRow, Col: p.Col + dCol, From: p.From, To: p.To}
		from, ok := dev.CanonOK(q.Row, q.Col, q.From)
		if !ok {
			return nil, fmt.Errorf("maze: replay step %d: %s does not exist at (%d,%d): %w",
				i, dev.A.WireName(q.From), q.Row, q.Col, ErrUnroutable)
		}
		to, ok := dev.CanonOK(q.Row, q.Col, q.To)
		if !ok {
			return nil, fmt.Errorf("maze: replay step %d: %s does not exist at (%d,%d): %w",
				i, dev.A.WireName(q.To), q.Row, q.Col, ErrUnroutable)
		}
		at := device.Coord{Row: q.Row, Col: q.Col}
		if !dev.A.PIPLegalLocal(q.From, q.To) ||
			!dev.TapAllowedAt(from, at) || !dev.DriveAllowedAt(to, at) {
			return nil, fmt.Errorf("maze: replay step %d: PIP %s illegal: %w",
				i, dev.PIPString(q), ErrUnroutable)
		}
		if !marks.has(dev.TrackIndex(from)) {
			return nil, fmt.Errorf("maze: replay step %d: %s not connected to the net: %w",
				i, dev.A.WireName(q.From), ErrUnroutable)
		}
		ti := dev.TrackIndex(to)
		if marks.has(ti) {
			return nil, fmt.Errorf("maze: replay step %d: %s driven twice by the path: %w",
				i, dev.A.WireName(q.To), ErrUnroutable)
		}
		if dev.Driven(ti) {
			return nil, fmt.Errorf("maze: replay step %d: %s already driven: %w",
				i, dev.A.WireName(q.To), ErrUnroutable)
		}
		marks.add(ti)
		route.PIPs[i] = q
		route.Cost += hopCost(dev.A.ClassOf(q.To).Kind)
	}
	return route, nil
}
