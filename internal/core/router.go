package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/maze"
)

// Algorithm selects how the automatic calls search. The paper stresses that
// "the JRoute API is independent of the algorithms used to implement it";
// these are the implementations offered.
type Algorithm uint8

// Algorithms. TemplateFirst is the paper's suggestion for route(src, sink):
// "define a set of unique and predefined templates that would get from the
// source to the sink and try each one. If all of them fail then the router
// could fall back on a maze algorithm." AStar is maze-only; Lee is the
// classical breadth-first baseline.
const (
	TemplateFirst Algorithm = iota
	AStar
	Lee
)

// Options tune the Router.
type Options struct {
	// Algorithm for the automatic calls (default TemplateFirst).
	Algorithm Algorithm
	// UseLongLines enables long lines in automatic routing. Off by
	// default, matching the paper ("Currently long lines are not
	// supported; only hexes and singles are used").
	UseLongLines bool
	// TimingDriven makes the maze search minimize estimated delay
	// instead of wire count — the §6 extension for critical nets, which
	// the paper's shipping router leaves to manual routing. It governs
	// single-net routes only: batch negotiation (RouteBatch,
	// RouteBusBatch) counts wires under every cost model.
	TimingDriven bool
	// Parallelism bounds the worker goroutines the negotiated batch
	// router (RouteBatch/RouteBusBatch) uses to re-route one iteration's
	// nets concurrently. 0 means runtime.GOMAXPROCS(0); 1 is fully
	// sequential. The routed result and the committed bitstream are
	// identical for every value.
	Parallelism int
	// ParanoidVerify runs the independent bitstream oracle after every
	// top-level routing call: the configuration is serialized,
	// re-extracted from raw frames, structurally checked, and compared
	// against the live connection records. Any divergence fails the call.
	// Debug/verification mode — every op pays a full-board audit.
	ParanoidVerify bool
}

// replaysPaths reports whether the cost model accepts a path found earlier —
// a cached or remembered route, a template — in place of a search. Those were
// chosen by wire count; under the delay model every route is searched.
func (o Options) replaysPaths() bool { return !o.TimingDriven }

// mazeOpts is the per-call search configuration: the static Options plus
// the router's live avoid-region list (see AddAvoid).
func (r *Router) mazeOpts() maze.Options {
	return maze.Options{
		UseLongLines: r.opt.UseLongLines,
		TimingDriven: r.opt.TimingDriven,
		Avoid:        r.avoid,
	}
}

// AddAvoid reserves a tile rectangle against automatic routing: until the
// matching RemoveAvoid, no automatic route, batch negotiation, or cache
// replay will make a PIP inside the rectangle or drive a wire whose
// physical span crosses it. It is the router half of run-time region
// reservation — a dynamically placed core claims its footprint so every
// subsequent route detours around it (DyNoC's obstacle model). Manual
// calls (Route, RoutePath) are not filtered: the user decides the path.
func (r *Router) AddAvoid(row, col, height, width int) {
	r.avoid = append(r.avoid, maze.Rect{Row: row, Col: col, Height: height, Width: width})
}

// RemoveAvoid drops the first avoid rectangle matching the given bounds.
// It returns false if no such reservation exists.
func (r *Router) RemoveAvoid(row, col, height, width int) bool {
	want := maze.Rect{Row: row, Col: col, Height: height, Width: width}
	for i, a := range r.avoid {
		if a == want {
			r.avoid = append(r.avoid[:i], r.avoid[i+1:]...)
			return true
		}
	}
	return false
}

// Stats counts router work, feeding the B1/B2 experiments and the routing
// service's statsz endpoint. No counter is ever reset; Sub measures an
// interval.
type Stats struct {
	Routes          int // automatic route calls completed
	TemplateHits    int // routes satisfied by a predefined template
	MazeFallbacks   int // routes that needed maze search
	NodesExplored   int // total search states expanded
	PIPsSet         int
	PIPsCleared     int
	BatchIterations int // negotiation rip-up/re-route rounds consumed by RouteBatch
	CacheHits       int // routes satisfied by replaying a cached path
	CacheMisses     int // cache lookups that found no applicable entry
	ReplayFails     int // cached paths whose legality sweep failed (fell back to search)
	// RecordsVisited counts the connection records a connection-level op
	// (route, unroute, reverse unroute, rip-up, adopt) examined to find the
	// ones it changes: a constant per net touched, whatever else is
	// resident. The whole-table exports (Connections, Export,
	// OracleClaims) are O(live records) by contract and do not count.
	RecordsVisited int

	// PartitionRegions counts the scopes RouteBatch negotiated over (see
	// maze.NegotiationOptions.Partition): structure only — the routed
	// result is identical whatever it reads.
	PartitionRegions int
}

// Sub returns the counter deltas s minus prev, for metrics pipelines that
// snapshot Stats around an operation.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Routes:           s.Routes - prev.Routes,
		TemplateHits:     s.TemplateHits - prev.TemplateHits,
		MazeFallbacks:    s.MazeFallbacks - prev.MazeFallbacks,
		NodesExplored:    s.NodesExplored - prev.NodesExplored,
		PIPsSet:          s.PIPsSet - prev.PIPsSet,
		PIPsCleared:      s.PIPsCleared - prev.PIPsCleared,
		BatchIterations:  s.BatchIterations - prev.BatchIterations,
		CacheHits:        s.CacheHits - prev.CacheHits,
		CacheMisses:      s.CacheMisses - prev.CacheMisses,
		ReplayFails:      s.ReplayFails - prev.ReplayFails,
		RecordsVisited:   s.RecordsVisited - prev.RecordsVisited,
		PartitionRegions: s.PartitionRegions - prev.PartitionRegions,
	}
}

// Connection records one routed net at the endpoint level, which is what
// port memory restores after a core swap (§3.3). Every PIP the router sets
// belongs to one (see recKind).
type Connection struct {
	Source EndPoint
	Sinks  []EndPoint

	// Path is the exact PIP path the route configured, in source-to-sink
	// order. It is port memory, snapshotted on every record, so Reconnect
	// and churn re-routes can replay the remembered path instead of
	// searching.
	Path []device.PIP
	// home is the path a restore searched away from while a reservation
	// stood (see AddAvoid), in this record's frame: where the net lived
	// before it detoured. RestoreConnection replays it before Path, so the
	// net goes back to its old wires once the reservation lifts.
	home []device.PIP

	// srcPin and sinkPins are the endpoint resolutions at record time —
	// the reference frame for shifted replay after a core relocation.
	srcPin   Pin
	sinkPins []Pin

	// Place in the router's connTable while the record is live: list and
	// source-chain links, its sequence number — insertion order, and the
	// key deltas carry — and the source track index it is filed under.
	prev, next, srcNext *Connection
	seq                 uint64
	key                 int32
	listed              bool
	// retired marks a record whose net has been unrouted (it lives on in
	// port memory); RestoreConnection flips it back. It, kind and owner
	// share a word with key and listed, which keeps a record at 176 bytes.
	retired bool
	kind    recKind
	// owner is the session that made the record (see SetOwner); a restore
	// keeps it, as it keeps home.
	owner uint8
}

// recKind says which call made a record: an automatic route (the only kind
// the exact route cache learns), a level-1–3 call, or a clock — any record
// sourced at a global clock net, which all share one source track, so each
// owns only its own taps.
type recKind uint8

const (
	netRec recKind = iota
	manualRec
	clockRec
)

// Router is the JRoute router over one device.
type Router struct {
	Dev *device.Device
	// opt is fixed at construction: nothing flips an option mid-session.
	opt Options

	stats      Stats
	conns      connTable
	remembered map[*Port][]*Connection
	owner      uint8 // stamped on the records the calls make (see SetOwner)
	cache      *routeCache

	// Scratch the ops write into, so an op allocates only what a caller or
	// a record keeps. Each buffer is valid until its next use.
	walkTracks []device.Track  // walk: the net's tracks that drive on
	walkPIPs   []device.PIP    // walk: the net's PIPs; ReverseTrace/ReverseUnroute: the branch; UnrouteAll: the on-PIPs
	walkSinks  []Pin           // walk: the net's sink pins
	fanoutBuf  []device.PIP    // walk: one track's fanout
	sinkPins   []Pin           // routeSinks, RouteClock: the sinks' pins in routing order
	keyPins    []Pin           // routeSinks, replayShifted: the same, sorted
	portBuf    []*Port         // connectionPorts
	regionBuf  []device.Track  // RipUpRegion: tracks over the rectangle
	rootBuf    []int32         // RipUpRegion: their nets' root track indices
	rippedBuf  []*Connection   // UnrouteWithin: the records it takes
	tapBuf     []device.Coord  // pathStep: the current track's taps
	reconnBuf  []*Connection   // Reconnect: the port's memory as it began
	memFree    [][]*Connection // remember: port-memory lists forget emptied
	ms         maze.Scratch    // replay, candidate templates, template search
	specBuf    []maze.NetSpec  // RouteBatch: the nets as the negotiation takes them
	// curPath accumulates the PIPs committed by the routing call
	// in flight, snapshotted onto the Connection record by record().
	curPath []device.PIP
	// opDepth tracks nesting of verified routing calls so ParanoidVerify
	// audits only at the outermost call boundary (see paranoid.go).
	opDepth int
	// entryClean: no frame was dirty when the outermost call began.
	// unwindLost: an unwind since then could not clear a PIP. See backToEntry.
	entryClean, unwindLost bool
	// batchCommitFault, when non-nil, injects a failure before the
	// (net, pip)-th SetPIP of a RouteBatch commit — test-only, for
	// auditing the commit rollback path.
	batchCommitFault func(net, pip int) error
	// avoid lists the tile rectangles currently reserved against automatic
	// routing (see AddAvoid).
	avoid []maze.Rect
}

// SetOwner names the session the following calls work for: every record
// they make carries o, and a record restored later keeps the owner it had.
// 0, the default, is a bare router's.
func (r *Router) SetOwner(o uint8) { r.owner = o }

// Stats returns a copy of the counters.
func (r *Router) Stats() Stats { return r.stats }

// Connections returns a defensive copy of the live endpoint-level
// connection records. Callers that only need the count should use
// ConnectionCount, which does not allocate.
func (r *Router) Connections() []*Connection {
	out := make([]*Connection, 0, r.conns.n)
	for c := r.conns.head; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// ConnectionCount returns the number of live connection records without
// copying them — the server's statsz path reads this every snapshot.
func (r *Router) ConnectionCount() int { return r.conns.n }

// IsOn is the paper's ison(row, col, wire): whether the wire is in use.
func (r *Router) IsOn(row, col int, w arch.Wire) bool { return r.Dev.IsOn(row, col, w) }

// Route turns on a single connection: "This call allows the user to make a
// single connection (i.e. the user decides the path). This can be useful in
// cases where there is a real time constraint on the amount of time spent
// configuring the device." (§3.1)
func (r *Router) Route(row, col int, from, to arch.Wire) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	r.curPath = r.curPath[:0]
	if err := r.setManual(row, col, from, to); err != nil {
		return err
	}
	r.recordManual()
	return nil
}

// LoopError refuses a manual PIP that would close a routing loop: it drives
// Root, the root of its own source's driver chain. Nothing is set.
type LoopError struct {
	PIP  device.PIP
	Root device.Track
	msg  string
}

func (e *LoopError) Error() string { return e.msg }

// setManual sets one PIP of a level-1–3 or clock call, refusing one that
// closes a loop, and adds it to curPath unless it was already on: then it
// stays whoever's it was.
func (r *Router) setManual(row, col int, from, to arch.Wire) error {
	p := device.PIP{Row: row, Col: col, From: from, To: to}
	src, okSrc := r.Dev.CanonOK(row, col, from)
	dst, okDst := r.Dev.CanonOK(row, col, to)
	if root, _ := r.Dev.RootOf(src, nil); okSrc && okDst && root == dst {
		return &LoopError{PIP: p, Root: root, msg: fmt.Sprintf("core: PIP %s would close a routing loop: %s at (%d,%d) is the root of its source",
			r.Dev.PIPString(p), r.Dev.A.WireName(root.W), root.Row, root.Col)}
	}
	was := r.Dev.IsOn(row, col, to)
	if err := r.Dev.SetPIP(row, col, from, to); err != nil || was {
		return err
	}
	r.stats.PIPsSet++
	r.curPath = append(r.curPath, p)
	return nil
}

// RoutePath turns on all connections of a user-defined path (§3.1). The
// path names each wire once; the router resolves at which tile each
// consecutive connection is made as the signal travels (the paper's
// example names SingleEast[5] at (5,7), whose continuation happens at
// (5,8) where the same track is SingleWest[5]). On failure, any
// connections already made by this call are turned off again.
func (r *Router) RoutePath(p Path) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	if err := p.Validate(r.Dev.A); err != nil {
		return err
	}
	cur, err := r.Dev.Canon(p.Row, p.Col, p.Wires[0])
	if err != nil {
		return err
	}
	entry := device.Coord{Row: p.Row, Col: p.Col}
	r.curPath = r.curPath[:0]
	for _, w := range p.Wires[1:] {
		if cur, entry, err = r.pathStep(cur, entry, w); err != nil {
			r.unwind(r.curPath)
			r.backToEntry()
			return err
		}
	}
	r.recordManual()
	return nil
}

// pathStep makes one RoutePath connection from track cur onto wire w,
// trying the tiles where cur can be tapped farthest from entry first.
func (r *Router) pathStep(cur device.Track, entry device.Coord, w arch.Wire) (device.Track, device.Coord, error) {
	var lastErr error
	r.tapBuf = forwardFirst(r.Dev.AppendTaps(r.tapBuf[:0], cur), entry)
	for _, tp := range r.tapBuf {
		fromName := r.Dev.LocalName(cur, tp)
		if fromName == arch.Invalid || !r.Dev.A.PIPLegalLocal(fromName, w) {
			continue
		}
		if err := r.setManual(tp.Row, tp.Col, fromName, w); err != nil {
			lastErr = err
			continue
		}
		next, err := r.Dev.Canon(tp.Row, tp.Col, w)
		return next, tp, err
	}
	if lastErr != nil {
		return cur, entry, fmt.Errorf("core: path step onto %s: %w", r.Dev.A.WireName(w), lastErr)
	}
	return cur, entry, fmt.Errorf("core: path step onto %s has no legal connection from %s",
		r.Dev.A.WireName(w), r.Dev.A.WireName(cur.W))
}

// forwardFirst orders tap tiles in place so the ones farthest from the
// entry tile come first: a path normally travels forward along each wire.
func forwardFirst(taps []device.Coord, entry device.Coord) []device.Coord {
	dist := func(c device.Coord) int {
		return abs(c.Row-entry.Row) + abs(c.Col-entry.Col)
	}
	slices.SortStableFunc(taps, func(a, b device.Coord) int { return cmp.Compare(dist(b), dist(a)) })
	return taps
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// RouteTemplate routes from a start pin to an end wire following a
// template: "the user ... specify a template and the router picks the
// wires" (§3.1).
func (r *Router) RouteTemplate(src Pin, endWire arch.Wire, t Template) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	start, err := r.Dev.Canon(src.Row, src.Col, src.W)
	if err != nil {
		return err
	}
	route, err := maze.TemplateRoute(r.Dev, start, endWire, t.Values)
	if err != nil {
		return err
	}
	r.stats.NodesExplored += route.Explored
	r.curPath = r.curPath[:0]
	if err := r.apply(route.PIPs); err != nil {
		r.backToEntry()
		return err
	}
	r.recordManual()
	return nil
}

// recordManual records the PIPs a level-1–3 call turned on as one
// Connection sunk at the last track it drove. An extension of a live net
// goes with that net: its record takes the source endpoint of the net's
// oldest record (the root pin when there is none).
func (r *Router) recordManual() {
	if len(r.curPath) == 0 {
		return
	}
	first, last := r.curPath[0], r.curPath[len(r.curPath)-1]
	start, _ := r.Dev.CanonOK(first.Row, first.Col, first.From)
	root, _ := r.Dev.RootOf(start, nil) // start, on a routing loop
	var source EndPoint = NewPin(root.Row, root.Col, root.W)
	if c := r.conns.bucket(r.Dev.TrackIndex(root)); c != nil {
		source = c.Source
	}
	r.record(manualRec, source, NewPin(last.Row, last.Col, last.To))
}

// unwind clears pips newest-first, so each cleared PIP's target has no
// remaining dependants: the one rollback behind every call that commits
// several PIPs and can fail partway. A PIP the device refuses to clear is
// skipped and noted (unwindLost), not reported — the caller is already
// returning the error that started the unwind.
func (r *Router) unwind(pips []device.PIP) {
	for i := len(pips) - 1; i >= 0; i-- {
		p := pips[i]
		if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			r.unwindLost = true
			continue
		}
		r.stats.PIPsCleared++
	}
}

func (r *Router) apply(pips []device.PIP) error {
	for i, p := range pips {
		if err := r.Dev.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			r.unwind(pips[:i])
			return err
		}
		r.stats.PIPsSet++
	}
	r.curPath = append(r.curPath, pips...)
	return nil
}

// sourcePin resolves a source endpoint, which must name exactly one pin.
func sourcePin(source EndPoint) (Pin, error) {
	p, n := solePin(source)
	if n != 1 {
		return Pin{}, fmt.Errorf("core: source endpoint must resolve to exactly one pin, got %d", n)
	}
	return p, nil
}

// solePin resolves e without copying a port's pins: the pin when e resolves
// to exactly one, and how many it resolves to.
func solePin(e EndPoint) (Pin, int) {
	var one [1]Pin
	pins := AppendPins(one[:0], e)
	if len(pins) != 1 {
		return Pin{}, len(pins)
	}
	return pins[0], 1
}

// routeOne routes srcTrack (plus the rest of its net) to one sink pin.
func (r *Router) routeOne(srcTrack device.Track, sink Pin) error {
	sinkTrack, err := r.Dev.Canon(sink.Row, sink.Col, sink.W)
	if err != nil {
		return err
	}
	r.walk(srcTrack) // the net's tracks so far: where a new branch may start
	sources := r.walkTracks
	freshNet := len(sources) == 1
	mo := r.mazeOpts()

	// Relocatable-template tier of the route cache: a fresh single-sink
	// route whose (source wire, sink wire, Δrow, Δcol) shape was learned
	// anywhere on the fabric replays the remembered relative path at this
	// position — the paper's §3.1 level-3 replay, discovered automatically.
	if freshNet && r.opt.replaysPaths() {
		if rel, ok := r.ensureCache().tmpl[shapeOf(srcTrack, sink)]; ok {
			if r.tryReplay(srcTrack, rel, srcTrack.Row, srcTrack.Col) {
				r.stats.Routes++
				r.stats.CacheHits++
				return nil
			}
			r.stats.ReplayFails++
		} else {
			r.stats.CacheMisses++
		}
	}

	if r.opt.Algorithm == TemplateFirst && freshNet && r.opt.replaysPaths() {
		sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
		// Template attempts are meant to be cheap prefilters before the
		// maze fallback, so they get a tight exploration budget.
		tmo := mo
		tmo.MaxNodes = 2000
		for _, tmpl := range r.ms.Candidates(r.Dev.A, srcTrack, sinkTile, sink.W, mo) {
			pips, explored, terr := r.ms.TemplateRoute(r.Dev, srcTrack, sink.W, sinkTile, true, tmpl, tmo)
			if terr != nil {
				continue
			}
			r.stats.NodesExplored += explored
			if err := r.apply(pips); err != nil {
				continue
			}
			r.stats.Routes++
			r.stats.TemplateHits++
			r.learnTemplate(srcTrack, sink, pips)
			return nil
		}
	}

	var route *maze.Route
	if r.opt.Algorithm == Lee {
		route, err = maze.Lee(r.Dev, sources, sinkTrack, mo)
	} else {
		route, err = maze.AStar(r.Dev, sources, sinkTrack, mo)
	}
	if err != nil {
		return err
	}
	r.stats.NodesExplored += route.Explored
	if err := r.apply(route.PIPs); err != nil {
		return err
	}
	r.stats.Routes++
	r.stats.MazeFallbacks++
	if freshNet {
		r.learnTemplate(srcTrack, sink, route.PIPs)
	}
	return nil
}

// RouteNet is route(EndPoint source, EndPoint sink): "auto-routing of point
// to point connections" (§3.1). A sink port may resolve to several pins, in
// which case all of them are connected (reusing the net) in Pins() order.
func (r *Router) RouteNet(source, sink EndPoint) error {
	return r.routeSinks(source, []EndPoint{sink}, false)
}

// RouteFanout is route(EndPoint source, EndPoint[] sinks): "It decides the
// best path for the entire collection of sinks ... Each sink gets routed in
// order of increasing distance from the source. For each sink, the router
// attempts to reuse the previous paths as much as possible." (§3.1)
func (r *Router) RouteFanout(source EndPoint, sinks []EndPoint) error {
	if len(sinks) == 0 {
		return fmt.Errorf("core: fanout with no sinks")
	}
	return r.routeSinks(source, sinks, true)
}

// routeSinks is the one body of RouteNet and RouteFanout: replay the whole
// net if these endpoints were routed before, else route pin by pin — in
// the order the endpoints list their pins, or nearest the source first —
// and record the net only when every pin is connected.
func (r *Router) routeSinks(source EndPoint, sinks []EndPoint, nearestFirst bool) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	src, err := sourcePin(source)
	if err != nil {
		return err
	}
	srcTrack, err := r.Dev.Canon(src.Row, src.Col, src.W)
	if err != nil {
		return err
	}
	pins := r.sinkPins[:0]
	for _, s := range sinks {
		n := len(pins)
		if pins = AppendPins(pins, s); len(pins) == n {
			return fmt.Errorf("core: sink endpoint resolves to no pins (unbound port?)")
		}
	}
	r.sinkPins = pins
	r.curPath = r.curPath[:0]
	// Exact tier of the route cache: these endpoints were routed (and
	// unrouted) before, so replay the remembered whole-net path.
	if r.opt.replaysPaths() {
		r.keyPins = append(r.keyPins[:0], pins...)
		sortPins(r.keyPins)
		if path, ok := r.lookupExact(src, r.keyPins); ok {
			if r.tryReplay(srcTrack, path, 0, 0) {
				r.stats.Routes += len(pins)
				r.stats.CacheHits++
				r.record(netRec, source, sinks...)
				return nil
			}
			r.stats.ReplayFails++
		} else {
			r.stats.CacheMisses++
		}
	}
	if nearestFirst {
		dist := func(p Pin) int { return abs(p.Row-src.Row) + abs(p.Col-src.Col) }
		slices.SortStableFunc(pins, func(a, b Pin) int { return cmp.Compare(dist(a), dist(b)) })
	}
	for _, sp := range pins {
		if err := r.routeOne(srcTrack, sp); err != nil {
			// A net that fails partway must not leave the pins already
			// routed configured: no record would claim those PIPs, making
			// them a phantom net invisible to trace, unroute and port
			// memory.
			r.unwind(r.curPath)
			r.curPath = r.curPath[:0]
			r.backToEntry()
			return err
		}
	}
	r.record(netRec, source, sinks...)
	return nil
}

// RouteBus is route(EndPoint[] source, EndPoint[] sink): "a call for bus
// connections. In a data flow design, the outputs of one stage go to the
// inputs of the next stage. As a convenience, the user does not need to
// write a Java loop to connect each one." (§3.1) Either every bit routes
// or none does: a bit that fails takes the bits before it back down, PIPs
// and records, as RouteBatch does.
func (r *Router) RouteBus(sources, sinks []EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	if len(sources) != len(sinks) {
		return fmt.Errorf("core: bus width mismatch: %d sources, %d sinks", len(sources), len(sinks))
	}
	if len(sources) == 0 {
		return fmt.Errorf("core: empty bus")
	}
	mark := r.conns.tail
	for i := range sources {
		if err := r.RouteNet(sources[i], sinks[i]); err != nil {
			// Each routed bit appended one record holding the PIPs it
			// committed; newest bit first, since a later bit may branch
			// off an earlier one's net.
			for c := r.conns.tail; c != mark; c = c.prev {
				r.unwind(c.Path)
			}
			r.conns.truncate(mark)
			r.backToEntry()
			return fmt.Errorf("core: bus bit %d: %w", i, err)
		}
	}
	return nil
}

// RouteClock connects a dedicated global clock net to the clock pins of the
// given endpoints using the dedicated low-skew resources (§2's global
// routing; clock distribution does not consume general routing). Either
// every tap goes on or none does. The call leaves one record: its source is
// the global net, its sinks the taps it turned on (not those already on).
func (r *Router) RouteClock(g int, sinks ...EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	gw := arch.GClk(g)
	if gw == arch.Invalid {
		return fmt.Errorf("core: no global clock %d", g)
	}
	r.curPath = r.curPath[:0]
	pins := r.sinkPins[:0]
	for _, s := range sinks {
		pins = AppendPins(pins, s)
	}
	r.sinkPins = pins
	taps := make([]EndPoint, 0, len(pins))
	for _, p := range pins {
		n := len(r.curPath)
		if err := r.setManual(p.Row, p.Col, gw, p.W); err != nil {
			r.unwind(r.curPath)
			r.backToEntry()
			return err
		}
		if len(r.curPath) > n {
			taps = append(taps, p)
		}
	}
	if len(taps) > 0 {
		r.record(clockRec, NewPin(0, 0, gw), taps...)
	}
	return nil
}

// record stores the endpoint-level connection for port memory, snapshotting
// the PIP path the call committed (and the pins the endpoints resolved to)
// so restores can replay it later. The snapshot is unconditional — path
// memory belongs to the connection record, not the route cache.
func (r *Router) record(kind recKind, source EndPoint, sinks ...EndPoint) {
	r.recordPath(kind, owned(r.curPath), source, sinks...)
}

// soleSink is a record of one sink resolving to one pin, in one allocation:
// Sinks and sinkPins view its arrays, at capacity one so an append copies.
type soleSink struct {
	Connection
	sink [1]EndPoint
	pin  [1]Pin
}

// newRecord makes a record of its own copy of sinks, and a soleSink's pin.
func newRecord(sinks []EndPoint) (*Connection, []Pin) {
	if len(sinks) == 1 {
		if p, n := solePin(sinks[0]); n == 1 {
			one := &soleSink{sink: [1]EndPoint{sinks[0]}, pin: [1]Pin{p}}
			one.Sinks = one.sink[:]
			return &one.Connection, one.pin[:]
		}
	}
	return &Connection{Sinks: append([]EndPoint(nil), sinks...)}, nil
}

// recordPath is record with the path given instead of taken from curPath:
// the record keeps path.
func (r *Router) recordPath(kind recKind, path []device.PIP, source EndPoint, sinks ...EndPoint) {
	c, pins := newRecord(sinks)
	c.Source, c.kind, c.owner = source, kind, r.owner
	if len(path) > 0 {
		if src, err := sourcePin(source); err == nil {
			c.Path = path
			c.srcPin = src
			if c.sinkPins = pins; pins == nil {
				c.sinkPins = flattenPins(c.Sinks)
			}
			if r.Dev.A.ClassOf(src.W).Kind == arch.KindGClk {
				c.kind = clockRec
			}
		}
	}
	r.conns.insert(c, r.sourceKey(source))
}
