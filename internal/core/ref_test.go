package core

import (
	"fmt"
	"slices"

	"repro/internal/device"
)

// The reference model of the connection-level ops, as they stood before
// the connection list became a keyed table (the PR 15 / 19 / 20 pattern):
// the parent commit's RipUpRegion scan over every live record,
// retireConnections, Unroute and ReverseUnroute's record split, verbatim
// over a plain insertion-ordered slice. FuzzRipUpRegion (conntable_test.go)
// drives a Router and a refRouter through the same script and holds them
// to the same ripped lists, records, snapshots, port memory and bytes.
//
// refRouter embeds a Router for everything that is not under test — the
// search, the route cache, record creation, restores — and shadows its
// table with the slice the parent kept: sync appends the records the
// embedded router made since the last call, and nothing here ever calls
// the embedded Unroute, ReverseUnroute, RipUpNet or RipUpRegion, so the
// embedded table only ever grows and is read only by sync.
//
// Six deliberate departures from verbatim, each marked where it is:
// RipUpRegion is cut in two at its final loop (scanRegion decides, ripUp
// unroutes) so the harness can compare decisions before anything moves;
// scanRegion takes traceAll, which sends every record through Trace as
// the parent did for path-less ones; and ReverseUnroute learns a record's
// whole path before splitting it (and so sheds the branch into a fresh
// slice, not in place) — the behaviour change this PR makes on purpose
// (TestRelocationWithDrivenInputsIsReplayBound in internal/cores), which
// the model has to share to stay comparable. The fourth is the clock rule:
// records now own every PIP, clock taps included, and a global clock is one
// net every clock record shares, so scanRegion rips a clock record only when
// one of its taps is inside the region, and ripUp clears only that
// record's taps. The fifth: Unroute retires every record sourced where the
// endpoint resolves, since the fabric net they share is gone, not only the
// records naming that endpoint; a region scan groups records the same way.
// The sixth: a ReverseUnroute that drops a record hands what is left of its
// path — the trunk the rest of the net hangs off — to the net's next record
// (the oldest one when none is newer), ahead of that record's own path.
type refRouter struct {
	*Router
	conns []*Connection
	last  *Connection // newest embedded record already in conns

	// traceAll makes scanRegion ignore recorded paths and trace every
	// record. The parent tested a record against its own Path only, so a
	// trunk left on the fabric by a ReverseUnroute that dropped the record
	// which routed it (its PIPs are in no live record's Path) was invisible
	// to it, and the net was not ripped though it crosses the region. The
	// fabric-read rip-up sees that trunk; it must equal the traceAll scan
	// always, and the verbatim scan whenever no net has unrecorded PIPs.
	traceAll bool
}

// sync appends the records the embedded router created since the last call.
func (r *refRouter) sync() {
	c := r.Router.conns.head
	if r.last != nil {
		c = r.last.next
	}
	for ; c != nil; c = c.next {
		r.conns = append(r.conns, c)
		r.last = c
	}
}

// Unroute is the paper's unroute(EndPoint source): "In the forward
// direction a source pin is specified. The unrouter then follows each of
// the wires the pin drives and turns it off. This continues until all of
// the sinks are found." (§3.3)
//
// Endpoint-level connection records whose source matches are removed; if
// any port is involved, the connection is remembered so that re-routing the
// port (after a core swap or relocation) can restore it (§3.3: "The port
// connections are removed, but are remembered").
func (r *refRouter) Unroute(source EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	net, err := r.Trace(source)
	if err != nil {
		return err
	}
	if len(net.PIPs) == 0 {
		return fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(net.Source.W), net.Source.Row, net.Source.Col)
	}
	// Clear leaves-first (reverse BFS order) so every ClearPIP removes a
	// PIP whose target has no remaining dependants.
	for i := len(net.PIPs) - 1; i >= 0; i-- {
		p := net.PIPs[i]
		if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			return err
		}
		r.stats.PIPsCleared++
	}
	key := r.sourceKey(source) // departure 5: the whole net's records, whatever endpoint routed them
	r.retireConnections(func(c *Connection) bool { return r.sourceKey(c.Source) == key })
	return nil
}

// ReverseUnroute is the paper's reverseunroute(EndPoint sink): "The entire
// net, starting from the source, is not removed. Only the branch that leads
// to the specified pin is turned off, and freed up for reuse. The unrouter
// starts at the sink pin and works backwards, turning off wires along the
// way, until it comes to a point where a wire is driving multiple wires."
// (§3.3)
func (r *refRouter) ReverseUnroute(sink EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	pins := sink.Pins()
	if len(pins) != 1 {
		return fmt.Errorf("core: reverse unroute needs exactly one sink pin, got %d", len(pins))
	}
	sp := pins[0]
	cur, err := r.Dev.Canon(sp.Row, sp.Col, sp.W)
	if err != nil {
		return err
	}
	var branch []device.PIP // cleared PIPs, sink-to-branch-point order
	for {
		p, ok := r.Dev.DriverOf(cur)
		if !ok {
			break
		}
		prev, err := r.Dev.Canon(p.Row, p.Col, p.From)
		if err != nil {
			return err
		}
		if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			return err
		}
		r.stats.PIPsCleared++
		branch = append(branch, p)
		// Stop at a branch point: the predecessor still drives others.
		if r.Dev.FanoutCount(prev) > 0 {
			break
		}
		cur = prev
	}
	if len(branch) == 0 {
		return fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(sp.W), sp.Row, sp.Col)
	}
	// Forward (branch-point→sink) order, the valid replay order.
	fwd := make([]device.PIP, len(branch))
	for i := range branch {
		fwd[i] = branch[len(branch)-1-i]
	}
	inBranch := func(p device.PIP) bool {
		for _, q := range branch {
			if q == p {
				return true
			}
		}
		return false
	}
	// Split the sink out of any connection records: the removed part is
	// remembered (under every port it touches, including the source's)
	// so Reconnect can restore exactly this branch; the remaining sinks
	// stay live. The remembered record carries the removed branch as its
	// path — replayable as long as the rest of the net provides the
	// branch point — and the surviving record's path sheds those PIPs.
	kept := r.conns[:0]
	for i, c := range r.conns {
		var stay, gone []EndPoint
		for _, s := range c.Sinks {
			if endPointCoversPin(s, sp) {
				gone = append(gone, s)
			} else {
				stay = append(stay, s)
			}
		}
		if len(gone) > 0 {
			r.learnExact(c) // departure 3: the driven-input fix, see the header
			mem := &Connection{Source: c.Source, Sinks: gone, retired: true}
			if src, err := sourcePin(c.Source); err == nil {
				mem.Path = append([]device.PIP(nil), fwd...)
				mem.srcPin = src
				mem.sinkPins = flattenPins(gone)
			}
			for _, port := range new(Router).connectionPorts(mem) {
				r.remembered[port] = append(r.remembered[port], mem)
			}
		}
		c.Sinks = stay
		if len(gone) > 0 && len(c.Path) > 0 {
			liveP := make([]device.PIP, 0, len(c.Path)) // departure 3: was c.Path[:0]
			for _, p := range c.Path {
				if !inBranch(p) {
					liveP = append(liveP, p)
				}
			}
			c.Path = liveP
			c.sinkPins = flattenPins(stay)
		}
		if len(c.Sinks) > 0 {
			kept = append(kept, c)
		} else if len(c.Path) > 0 { // departure 6
			key := r.sourceKey(c.Source)
			same := func(o *Connection) bool { return r.sourceKey(o.Source) == key }
			heir := slices.IndexFunc(r.conns[i+1:], same)
			if heir >= 0 {
				heir += i + 1
			} else if heir = slices.IndexFunc(kept, same); heir >= 0 {
				heir = slices.Index(r.conns, kept[heir])
			}
			if heir >= 0 {
				r.conns[heir].Path = append(slices.Clone(c.Path), r.conns[heir].Path...)
			}
		}
	}
	r.conns = kept
	return nil
}

// retireConnections removes matching records from the live list; records
// that involve ports are remembered for later Reconnect. Every retired
// record's path is learned into the exact route cache — including pin-only
// records about to be dropped, which is what makes churn re-routes of the
// same endpoints replay instead of search.
func (r *refRouter) retireConnections(match func(*Connection) bool) {
	kept := r.conns[:0]
	for _, c := range r.conns {
		if !match(c) {
			kept = append(kept, c)
			continue
		}
		c.retired = true
		r.learnExact(c)
		for _, port := range new(Router).connectionPorts(c) {
			r.remembered[port] = append(r.remembered[port], c)
		}
	}
	r.conns = kept
}

// scanRegion is the deciding half of the parent's RipUpRegion.
func (r *refRouter) scanRegion(row, col, height, width int) (ripped, nets []*Connection, err error) {
	inRect := func(rr, cc int) bool {
		return rr >= row && rr < row+height && cc >= col && cc < col+width
	}
	// A net intersects the region if any of its PIPs is made inside it OR
	// any wire it drives physically spans it. The span check matters: a hex
	// driven just west of the region and tapped just east of it crosses
	// every region tile with both its PIPs outside, and a net routed that
	// way would otherwise survive the rip-up only to be severed when the
	// region's new occupant claims the fabric under it.
	pipsIntersect := func(pips []device.PIP) bool {
		for _, p := range pips {
			if inRect(p.Row, p.Col) {
				return true
			}
			t, ok := r.Dev.CanonOK(p.Row, p.Col, p.To)
			if !ok {
				continue
			}
			if r0, c0, r1, c1, ok := r.Dev.TrackSpan(t); ok &&
				r1 >= row && r0 < row+height && c1 >= col && c0 < col+width {
				return true
			}
		}
		return false
	}
	connIntersects := func(c *Connection) (bool, error) {
		if c.kind == clockRec { // departure 4
			return slices.ContainsFunc(flattenPins(c.Sinks), func(p Pin) bool { return inRect(p.Row, p.Col) }), nil
		}
		if src, err := sourcePin(c.Source); err == nil && inRect(src.Row, src.Col) {
			return true, nil
		}
		for _, p := range flattenPins(c.Sinks) {
			if inRect(p.Row, p.Col) {
				return true, nil
			}
		}
		if len(c.Path) > 0 && !r.traceAll {
			return pipsIntersect(c.Path), nil
		}
		net, err := r.Trace(c.Source)
		if err != nil {
			return false, err
		}
		return pipsIntersect(net.PIPs), nil
	}

	live := append([]*Connection(nil), r.conns...)
	hit := make(map[*Connection]bool)
	for _, c := range live {
		if hit[c] {
			continue
		}
		ok, err := connIntersects(c)
		if err != nil {
			return nil, nil, fmt.Errorf("core: region rip-up: %w", err)
		}
		if !ok {
			continue
		}
		// The physical net is ripped whole, so every record sharing this
		// source retires with it — but a clock record goes alone.
		nets = append(nets, c)
		for _, o := range live {
			if o == c || c.kind != clockRec && r.sourceKey(o.Source) == r.sourceKey(c.Source) {
				hit[o] = true
			}
		}
	}
	for _, c := range live {
		if hit[c] {
			ripped = append(ripped, c)
		}
	}
	return ripped, nets, nil
}

// ripUp is the tail of the parent's RipUpRegion: unroute each hit net in
// scan order, from the source of its first record, or a clock record's own
// taps (departure 4). (The parent returned nil records with the error; what
// the change returns there is pinned by TestRipUpRegionPartialFailure.)
func (r *refRouter) ripUp(ripped, nets []*Connection) (_ []*Connection, err error) {
	r.enterOp()
	defer r.exitOp(&err)
	for _, c := range nets {
		if c.kind != clockRec {
			err = r.Unroute(c.Source)
		} else {
			err = r.clearTaps(c)
		}
		if err != nil {
			return nil, fmt.Errorf("core: region rip-up: %w", err)
		}
	}
	return ripped, nil
}

// clearTaps turns a clock record's taps off and retires it alone.
func (r *refRouter) clearTaps(c *Connection) error {
	src, _ := sourcePin(c.Source)
	for _, p := range flattenPins(c.Sinks) {
		if err := r.Dev.ClearPIP(p.Row, p.Col, src.W, p.W); err != nil {
			return err
		}
		r.stats.PIPsCleared++
	}
	r.retireConnections(func(o *Connection) bool { return o == c })
	return nil
}

// snapshot is the parent's SnapshotConnections over the slice.
func (r *refRouter) snapshot() []ConnectionRecord {
	out := make([]ConnectionRecord, 0, len(r.conns))
	for _, c := range r.conns {
		if c.retired {
			continue
		}
		rec := ConnectionRecord{Kind: c.kind, Home: c.home}
		if isPort(c.Source) || slices.ContainsFunc(c.Sinks, isPort) {
			rec.Ends = append([]EndPoint{c.Source}, c.Sinks...)
		}
		if len(c.sinkPins) > 0 {
			rec.Source = c.srcPin
			rec.Sinks = append([]Pin(nil), c.sinkPins...)
			rec.Path = append([]device.PIP(nil), c.Path...)
		} else {
			src, err := sourcePin(c.Source)
			if err != nil {
				continue
			}
			rec.Source = src
			rec.Sinks = flattenPins(c.Sinks)
		}
		out = append(out, rec)
	}
	return out
}
