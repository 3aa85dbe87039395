package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/maze"
)

// The route cache is the run-time answer to RTR churn: the paper's §3.3
// workflow (unroute a core, drop in a replacement, Reconnect the remembered
// ports) and the churn workloads jrouted serves keep re-routing the same
// connections, yet every re-route used to pay a full maze search. Two tiers
// short-circuit that:
//
//   - exact paths: every successful automatic route records its PIP path on
//     the Connection; re-routing the same endpoints (or the same endpoints
//     uniformly shifted, for a relocated core) first replays the remembered
//     path with an O(path-length) legality sweep (maze.Replay).
//   - relocatable templates: single-sink routes are also learned keyed by
//     (source wire, sink wire, Δrow, Δcol) with the path stored relative to
//     the source tile — the paper's §3.1 level-3 observation that a route on
//     a regular fabric is a sequence of relative hops, so the same shape
//     replays anywhere the geometry repeats.
//
// A replay that fails its legality sweep (resources taken by another net,
// fabric edge, illegal at the new site) falls back to the ordinary search,
// so a stale entry costs one sweep and can never corrupt routing state.
// Replayed routes commit through the same apply path as searched routes and
// are byte-identical in the bitstream to a cold search finding that path.

// Cache capacities, per router. Eviction is FIFO on insertion order —
// deterministic, unlike ranging over a Go map — so routing behaviour is
// reproducible run to run.
const (
	cacheMaxExact     = 4096
	cacheMaxTemplates = 4096
)

// tmplKey identifies a relocatable route shape: same source and sink wire
// class at the same relative offset means the same template applies,
// regardless of absolute position.
type tmplKey struct {
	srcW, sinkW arch.Wire
	dRow, dCol  int
}

// routeCache holds both tiers. It lives on one Router, so it is inherently
// per-device and per-architecture, and needs no locking: routers are
// single-goroutine for mutations.
type routeCache struct {
	exact      map[string]*[]device.PIP // a relearned key's path is replaced in place
	exactOrder []string
	tmpl       map[tmplKey][]device.PIP
	tmplOrder  []tmplKey
	keyBuf     []byte // scratch for exact-key encoding
}

func (r *Router) ensureCache() *routeCache {
	if r.cache == nil {
		r.cache = &routeCache{
			exact: make(map[string]*[]device.PIP),
			tmpl:  make(map[tmplKey][]device.PIP),
		}
	}
	return r.cache
}

// exactKey encodes a source pin plus sorted sink pins into the cache's key
// scratch and returns it. A lookup indexes the map with it in place; only
// putExact copies it into a string, and only for a key not yet filed.
func (rc *routeCache) exactKey(src Pin, sinks []Pin) []byte {
	b := rc.keyBuf[:0]
	b = binary.AppendVarint(b, int64(src.Row))
	b = binary.AppendVarint(b, int64(src.Col))
	b = binary.AppendVarint(b, int64(src.W))
	for _, p := range sinks {
		b = binary.AppendVarint(b, int64(p.Row))
		b = binary.AppendVarint(b, int64(p.Col))
		b = binary.AppendVarint(b, int64(p.W))
	}
	rc.keyBuf = b
	return b
}

func (rc *routeCache) putExact(b []byte, path []device.PIP) {
	if p, ok := rc.exact[string(b)]; ok {
		*p = path
		return
	}
	key := string(b)
	if len(rc.exactOrder) >= cacheMaxExact {
		oldest := rc.exactOrder[0]
		rc.exactOrder = rc.exactOrder[1:]
		delete(rc.exact, oldest)
	}
	kept := path // the holder a new key keeps; a filed key's is reused
	rc.exactOrder = append(rc.exactOrder, key)
	rc.exact[key] = &kept
}

func (rc *routeCache) putTmpl(key tmplKey, rel []device.PIP) {
	if _, ok := rc.tmpl[key]; !ok {
		if len(rc.tmplOrder) >= cacheMaxTemplates {
			oldest := rc.tmplOrder[0]
			rc.tmplOrder = rc.tmplOrder[1:]
			delete(rc.tmpl, oldest)
		}
		rc.tmplOrder = append(rc.tmplOrder, key)
	}
	rc.tmpl[key] = rel
}

// flattenPins resolves a sink endpoint list to its pins, sorted by
// (row, col, wire) so the set is canonical regardless of routing order. Up
// to 16 pins it resolves on the stack: one exact-size allocation.
func flattenPins(sinks []EndPoint) []Pin {
	var buf [16]Pin
	pins := buf[:0]
	for _, s := range sinks {
		pins = AppendPins(pins, s)
	}
	sortPins(pins)
	return owned(pins)
}

func sortPins(pins []Pin) {
	slices.SortFunc(pins, func(a, b Pin) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col), cmp.Compare(a.W, b.W))
	})
}

// tryReplay validates pips shifted by (dRow, dCol) against current
// occupancy and, if legal, commits them through the normal apply path (so
// PIPsSet counting, rollback, and curPath recording behave exactly as for
// a searched route). Returns false on any failure, leaving the device
// untouched.
func (r *Router) tryReplay(srcTrack device.Track, pips []device.PIP, dRow, dCol int) bool {
	// A reserved region vetoes the replay outright: the remembered path was
	// learned before the reservation and may cross it, and maze.Replay
	// checks occupancy, not reservations.
	if maze.PathAvoids(r.Dev, pips, dRow, dCol, r.avoid) {
		return false
	}
	r.walk(srcTrack)
	path, err := r.ms.Replay(r.Dev, r.walkTracks, pips, dRow, dCol)
	return err == nil && r.apply(path) == nil
}

// learnExact remembers a retired automatic route's path under its endpoint
// key, so re-routing the same endpoints later replays instead of searching.
func (r *Router) learnExact(c *Connection) {
	if !r.opt.replaysPaths() || c.kind != netRec || len(c.Path) == 0 || len(c.sinkPins) == 0 {
		return
	}
	rc := r.ensureCache()
	rc.putExact(rc.exactKey(c.srcPin, c.sinkPins), c.Path)
}

// lookupExact returns the remembered path for these exact endpoints.
func (r *Router) lookupExact(src Pin, sinks []Pin) ([]device.PIP, bool) {
	if r.cache == nil {
		return nil, false
	}
	if p, ok := r.cache.exact[string(r.cache.exactKey(src, sinks))]; ok {
		return *p, true
	}
	return nil, false
}

// learnTemplate stores a fresh single-sink route as a relocatable shape:
// the path re-based to the source tile, keyed by wire classes and offset.
func (r *Router) learnTemplate(srcTrack device.Track, sink Pin, pips []device.PIP) {
	if !r.opt.replaysPaths() || len(pips) == 0 {
		return
	}
	rel := make([]device.PIP, len(pips))
	for i, p := range pips {
		rel[i] = device.PIP{Row: p.Row - srcTrack.Row, Col: p.Col - srcTrack.Col, From: p.From, To: p.To}
	}
	r.ensureCache().putTmpl(shapeOf(srcTrack, sink), rel)
}

// shapeOf keys a single-sink route by its wire classes and offset.
func shapeOf(srcTrack device.Track, sink Pin) tmplKey {
	return tmplKey{srcW: srcTrack.W, sinkW: sink.W, dRow: sink.Row - srcTrack.Row, dCol: sink.Col - srcTrack.Col}
}

// RestoreConnection re-routes one retired connection record, replay-first:
// if the record carries a path and its endpoints currently resolve to the
// recorded pins shifted by one uniform (Δrow, Δcol) — identical position
// included — the path is replayed shifted; otherwise, or when the sweep
// finds the path blocked, it falls back to RouteNet/RouteFanout (which
// consult the exact cache themselves). On success the record is marked
// live again and purged from every port's remembered list. Restoring a
// connection that is not retired is a no-op.
//
// A record with a home replays it before its Path. A restore that searches
// while a reservation stands gives the new record the path it searched
// away from as its home, so a net detoured around a reserved region goes
// back to its old wires once the region is released (DyNoC's return to
// the original configuration). Only a cost model that does not replay
// paths (Options.replaysPaths) skips both replays.
func (r *Router) RestoreConnection(c *Connection) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	if !c.retired {
		return nil
	}
	defer func(o uint8) { r.owner = o }(r.owner)
	r.owner = c.owner
	home := c.home
	switch {
	case r.replayShifted(c, c.home):
		home = nil
	case r.replayShifted(c, c.Path):
	default:
		switch src, _ := sourcePin(c.Source); {
		case c.kind == clockRec:
			err = r.RouteClock(r.Dev.A.ClassOf(src.W).Index, c.Sinks...)
		case len(c.Sinks) == 1:
			err = r.RouteNet(c.Source, c.Sinks[0])
		default:
			err = r.RouteFanout(c.Source, c.Sinks)
		}
		if err != nil {
			return err
		}
		if home == nil && len(r.avoid) > 0 {
			home = c.Path
		}
	}
	// The way home is in c's frame: the new record keeps it only where c was.
	if nc := r.conns.tail; nc != nil && nc.srcPin == c.srcPin && slices.Equal(nc.sinkPins, c.sinkPins) {
		nc.home = home
	}
	r.finishRestore(c)
	return nil
}

// replayShifted replays path, recorded in c's frame, shifted by the one
// uniform (Δrow, Δcol) c's endpoints have moved since — zero included —
// and reports whether it did. A sweep that finds the path blocked counts a
// replay failure; no path, a cost model that does not replay paths, or
// endpoints that moved non-uniformly run no sweep.
func (r *Router) replayShifted(c *Connection, path []device.PIP) bool {
	if !r.opt.replaysPaths() || len(path) == 0 || len(c.sinkPins) == 0 {
		return false
	}
	src, err := sourcePin(c.Source)
	if err != nil {
		return false
	}
	cur := r.keyPins[:0]
	for _, s := range c.Sinks {
		cur = AppendPins(cur, s)
	}
	sortPins(cur)
	r.keyPins = cur
	if len(cur) != len(c.sinkPins) || src.W != c.srcPin.W {
		return false
	}
	dRow, dCol := src.Row-c.srcPin.Row, src.Col-c.srcPin.Col
	for i, p := range cur {
		q := c.sinkPins[i]
		if p.W != q.W || p.Row-q.Row != dRow || p.Col-q.Col != dCol {
			return false
		}
	}
	srcTrack, err := r.Dev.Canon(src.Row, src.Col, src.W)
	if err != nil {
		return false
	}
	r.curPath = r.curPath[:0]
	if !r.tryReplay(srcTrack, path, dRow, dCol) {
		r.stats.ReplayFails++
		return false
	}
	r.stats.Routes += len(cur)
	r.stats.CacheHits++
	r.record(c.kind, c.Source, c.Sinks...)
	return true
}

// finishRestore marks a restored record live and drops it from every
// remembered-port list (the restored route got a fresh live record).
func (r *Router) finishRestore(c *Connection) {
	c.retired = false
	r.forget(c)
}

// forget drops c from every remembered-port list it is in.
func (r *Router) forget(c *Connection) {
	found := false
	for _, q := range r.connectionPorts(c) {
		list := r.remembered[q]
		kept := list[:0]
		for _, x := range list {
			if x != c {
				kept = append(kept, x)
			}
		}
		found = found || len(kept) < len(list)
		if len(kept) == 0 {
			clear(list)
			r.memFree = append(r.memFree, kept)
			delete(r.remembered, q)
		} else {
			r.remembered[q] = kept
		}
	}
	if t := r.conns.log; found && t != nil {
		t.retired = append(t.retired, Gone{c.seq, c.owner})
	}
}

// RipUpRegion unroutes every live net that touches the height×width tile
// rectangle at (row, col) — the region-scoped incremental rip-up behind
// cores.Replace and NoC.PlaceObstacle — and returns the retired records so
// the caller can RestoreConnection each one after the region's new occupant
// is in place.
//
// What touches the rectangle is read off the fabric, not the connection
// list, so the cost follows the region and not the session: the device
// lists the driven tracks whose physical span meets the rectangle and the
// source pins inside it (Device.AppendTracksOver), each is walked driver by
// driver to its net's root, and the root's track looks the net's records up.
// The span matters: a hex driven just west of the region and tapped just
// east of it crosses every region tile with both its PIPs outside, and a
// net routed that way would otherwise survive the rip-up only to be severed
// when the region's new occupant claims the fabric under it. A global clock
// is one net shared by every core on it: a clock record goes only when one
// of its taps is inside the rectangle, and takes only its own taps.
//
// A net is ripped whole — all records sharing its source retire together,
// remembered under their ports as usual. The returned list is in record
// insertion order and nets are unrouted oldest record first: that is the
// order exact paths are learned and port memory is filed in, and what
// restores replay in. If an Unroute fails part-way the error comes back
// with the records already retired, which the caller must restore or lose:
// a pin-to-pin record lives in no port's memory.
func (r *Router) RipUpRegion(row, col, height, width int) (ripped []*Connection, err error) {
	r.enterOp()
	defer r.exitOp(&err)
	return r.ripRegion(nil, row, col, height, width, nil)
}

// UnrouteWithin unroutes the live records made after number since (see Seq)
// whose endpoints — a clock record's taps — all lie in the rectangle: how a
// core takes back what its Implement routed. They are found by RipUpRegion's
// fabric read, so the cost follows the core and not the session.
func (r *Router) UnrouteWithin(row, col, height, width int, since uint64) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	rect := maze.Rect{Row: row, Col: col, Height: height, Width: width}
	ripped, err := r.ripRegion(r.rippedBuf[:0], row, col, height, width, func(c *Connection) bool {
		src, sinks, ok := c.pins()
		return ok && c.seq > since && (c.kind == clockRec || rect.Contains(src.Row, src.Col)) &&
			!slices.ContainsFunc(sinks, func(p Pin) bool { return !rect.Contains(p.Row, p.Col) })
	})
	clear(ripped) // the scratch holds no retired record alive
	r.rippedBuf = ripped[:0]
	return err
}

// Seq returns the sequence number of the newest record made so far.
func (r *Router) Seq() uint64 { return r.conns.seq }

// ripRegion unroutes, oldest first, the records RipUpRegion's fabric read
// finds that keep (if not nil) accepts, and returns them in dst's storage.
func (r *Router) ripRegion(dst []*Connection, row, col, height, width int, keep func(*Connection) bool) (ripped []*Connection, err error) {
	r.regionBuf = r.Dev.AppendTracksOver(r.regionBuf[:0], row, col, height, width)
	roots := r.rootBuf[:0]
	for _, t := range r.regionBuf {
		root, _ := r.Dev.RootOf(t, nil) // t itself, on a routing loop
		roots = append(roots, r.Dev.TrackIndex(root))
	}
	slices.Sort(roots)
	roots = slices.Compact(roots)
	r.rootBuf = roots
	rect := maze.Rect{Row: row, Col: col, Height: height, Width: width}
	tapIn := func(p Pin) bool { return rect.Contains(p.Row, p.Col) }
	ripped = dst[:0]
	for _, root := range roots {
		for c := r.conns.bucket(root); c != nil; c = c.srcNext {
			r.stats.RecordsVisited++
			if c.kind == clockRec {
				if _, taps, _ := c.pins(); !slices.ContainsFunc(taps, tapIn) {
					continue
				}
			}
			if keep == nil || keep(c) {
				ripped = append(ripped, c)
			}
		}
	}
	slices.SortFunc(ripped, func(a, b *Connection) int { return cmp.Compare(a.seq, b.seq) })
	for _, c := range ripped {
		if err := r.take(c); err != nil {
			return slices.DeleteFunc(ripped, func(c *Connection) bool { return !c.retired }),
				fmt.Errorf("core: region rip-up: %w", err)
		}
	}
	return ripped, nil
}

// take unroutes c's net and retires its records, unless an older record of
// the same net already has. A clock record clears only its own taps.
func (r *Router) take(c *Connection) error {
	if c.retired {
		return nil
	}
	if c.kind != clockRec {
		return r.Unroute(c.Source)
	}
	src, taps, _ := c.pins()
	for _, p := range taps {
		if err := r.Dev.ClearPIP(p.Row, p.Col, src.W, p.W); err != nil {
			return err
		}
		r.stats.PIPsCleared++
	}
	r.retire(c)
	return nil
}

// RipUpNet unroutes the live net sourced at source and returns its
// retired connection records — the single-net analogue of RipUpRegion.
// Churn flows use it to take back the handle of a net they previously
// restored (e.g. a detour routed around an obstacle) so RestoreConnection
// can send it home once the obstacle is gone. When no live net is sourced
// there (its owner unrouted it in the meantime) it returns an empty list,
// not an error.
func (r *Router) RipUpNet(source EndPoint) (ripped []*Connection, err error) {
	r.enterOp()
	defer r.exitOp(&err)
	for c := r.conns.bucket(r.sourceKey(source)); c != nil; c = c.srcNext {
		r.stats.RecordsVisited++
		ripped = append(ripped, c)
	}
	if len(ripped) == 0 {
		return nil, nil
	}
	if err := r.Unroute(source); err != nil {
		return nil, fmt.Errorf("core: rip-up net: %w", err)
	}
	return ripped, nil
}
