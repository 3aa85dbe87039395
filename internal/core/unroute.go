package core

import (
	"fmt"
	"slices"

	"repro/internal/device"
)

// Unroute is the paper's unroute(EndPoint source): "In the forward
// direction a source pin is specified. The unrouter then follows each of
// the wires the pin drives and turns it off. This continues until all of
// the sinks are found." (§3.3)
//
// Every record of the net goes with its wires — whichever endpoint routed
// it: a port and the pin it resolves to source one net. A record that
// involves a port is remembered so that re-routing the port (after a core
// swap or relocation) can restore it (§3.3: "The port connections are
// removed, but are remembered").
func (r *Router) Unroute(source EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	src, err := r.walkFrom(source)
	if err != nil {
		return err
	}
	pips := r.walkPIPs
	if len(pips) == 0 {
		return fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(src.W), src.Row, src.Col)
	}
	// Clear leaves-first (reverse walk order) so every ClearPIP removes a
	// PIP whose target has no remaining dependants.
	for i := len(pips) - 1; i >= 0; i-- {
		p := pips[i]
		if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			return err
		}
		r.stats.PIPsCleared++
	}
	r.retireSource(source)
	return nil
}

// ReverseUnroute is the paper's reverseunroute(EndPoint sink): "The entire
// net, starting from the source, is not removed. Only the branch that leads
// to the specified pin is turned off, and freed up for reuse. The unrouter
// starts at the sink pin and works backwards, turning off wires along the
// way, until it comes to a point where a wire is driving multiple wires."
// (§3.3)
func (r *Router) ReverseUnroute(sink EndPoint) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	sp, n := solePin(sink)
	if n != 1 {
		return fmt.Errorf("core: reverse unroute needs exactly one sink pin, got %d", n)
	}
	cur, err := r.Dev.Canon(sp.Row, sp.Col, sp.W)
	if err != nil {
		return err
	}
	branch := r.walkPIPs[:0] // cleared PIPs, sink-to-branch-point order
	root := cur              // the track the walk has reached
	for {
		p, ok := r.Dev.DriverOf(cur)
		if !ok {
			break
		}
		prev, err := r.Dev.Canon(p.Row, p.Col, p.From)
		if err != nil {
			return err
		}
		root = prev
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
	r.walkPIPs = branch
	if len(branch) == 0 {
		return fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(sp.W), sp.Row, sp.Col)
	}
	inBranch := func(p device.PIP) bool {
		for _, q := range branch {
			if q == p {
				return true
			}
		}
		return false
	}
	// The records that can name sp as a sink are the ones sourced where
	// this net is: carry the driver walk on, past the branch point and
	// clearing nothing, to the net's root, and take that source's chain.
	for {
		p, ok := r.Dev.DriverOf(root)
		if !ok {
			break
		}
		if root, err = r.Dev.Canon(p.Row, p.Col, p.From); err != nil {
			return err
		}
	}
	// Split the sink out of those records: the removed part is
	// remembered (under every port it touches, including the source's)
	// so Reconnect can restore exactly this branch; the remaining sinks
	// stay live. The remembered record carries the removed branch as its
	// path — replayable as long as the rest of the net provides the
	// branch point — and the surviving record's path sheds those PIPs.
	var next *Connection // c may leave the chain below
	for c := r.conns.bucket(r.Dev.TrackIndex(root)); c != nil; c = next {
		next = c.srcNext
		r.stats.RecordsVisited++
		var stay, gone []EndPoint
		for _, s := range c.Sinks {
			if endPointCoversPin(s, sp) {
				gone = append(gone, s)
			} else {
				stay = append(stay, s)
			}
		}
		if len(gone) == 0 {
			continue
		}
		// The net as it stood is learned whole before it is split, as a
		// retired one is: a core whose driven input ports are reverse-
		// unrouted pin by pin (cores.Replace) loses its whole record on
		// the first pin, and without this entry every return to a site
		// searched each of the port's pins again.
		r.learnExact(c)
		mem := &Connection{Source: c.Source, Sinks: gone, retired: true, owner: c.owner}
		if src, err := sourcePin(c.Source); err == nil {
			// Forward (branch-point→sink) order, the valid replay order.
			mem.Path = owned(branch)
			slices.Reverse(mem.Path)
			mem.srcPin = src
			mem.sinkPins = flattenPins(gone)
		}
		r.remember(mem)
		// A reshaped net has no way home: its home still reaches the gone sinks.
		c.Sinks, c.home = stay, nil
		if len(c.Path) > 0 {
			// A fresh slice: the exact cache now holds the old one.
			liveP := make([]device.PIP, 0, len(c.Path))
			for _, p := range c.Path {
				if !inBranch(p) {
					liveP = append(liveP, p)
				}
			}
			c.Path = liveP
			c.sinkPins = flattenPins(stay)
		}
		if len(stay) == 0 {
			r.bequeath(c)
			r.conns.remove(c)
		} else {
			r.conns.touch(c)
		}
	}
	return nil
}

// bequeath hands what is left of the path of c, a record about to go, to
// another record of its net: it is the trunk the rest of the net hangs
// off. The next record after c gets it ahead of its own path, so every PIP
// stays on a record's path and an import that adopts the net's records in
// order replays it.
func (r *Router) bequeath(c *Connection) {
	heir := c.srcNext
	if heir == nil && r.conns.bucket(c.key) != c {
		heir = r.conns.bucket(c.key)
	}
	if heir != nil && len(c.Path) > 0 {
		heir.Path = append(slices.Clone(c.Path), heir.Path...)
		r.conns.touch(heir)
	}
}

// UnrouteAll removes every routed net on the device (used when tearing a
// whole design down). Every live connection record is retired along with
// the configuration bits: leaving the records live would claim nets that
// no longer exist on the device.
func (r *Router) UnrouteAll() (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	for {
		pips := r.Dev.AppendAllOnPIPs(r.walkPIPs[:0])
		if r.walkPIPs = pips; len(pips) == 0 {
			for c := r.conns.head; c != nil; c = r.conns.head {
				r.retire(c)
			}
			return nil
		}
		progress := false
		for _, p := range pips {
			t, err := r.Dev.Canon(p.Row, p.Col, p.To)
			if err != nil {
				return err
			}
			// Only clear PIPs whose target drives nothing (leaves).
			if r.Dev.FanoutCount(t) > 0 {
				continue
			}
			if err := r.Dev.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
				return err
			}
			r.stats.PIPsCleared++
			progress = true
		}
		if !progress {
			return fmt.Errorf("core: unroute-all stuck with %d PIPs (routing cycle?)", len(pips))
		}
	}
}

// retireSource retires the live records sourced where this endpoint
// resolves, oldest first: the net the fabric holds there is gone.
func (r *Router) retireSource(source EndPoint) {
	key := r.sourceKey(source)
	for c := r.conns.bucket(key); c != nil; c = r.conns.bucket(key) {
		r.stats.RecordsVisited++
		r.retire(c)
	}
}

// retire takes one record off the live table; a record that involves ports
// is remembered for later Reconnect. Every retired record's path is learned
// into the exact route cache — including pin-only records about to be
// dropped, which is what makes churn re-routes of the same endpoints replay
// instead of search.
func (r *Router) retire(c *Connection) {
	r.conns.remove(c)
	c.retired = true
	r.learnExact(c)
	r.remember(c)
}

// remember files a retired record under every port it touches, numbered
// anew, so each port's list is in sequence order. A record that touches no
// port is not remembered.
func (r *Router) remember(c *Connection) {
	ports := r.connectionPorts(c)
	if len(ports) == 0 {
		return
	}
	r.conns.seq++
	c.seq = r.conns.seq
	for _, port := range ports {
		list, ok := r.remembered[port]
		if n := len(r.memFree); !ok && n > 0 {
			list, r.memFree = r.memFree[n-1], r.memFree[:n-1]
		}
		r.remembered[port] = append(list, c)
	}
	if t := r.conns.log; t != nil {
		t.remembered = append(t.remembered, c)
	}
}

// connectionPorts lists the distinct ports an endpoint-level connection
// touches, in router scratch.
func (r *Router) connectionPorts(c *Connection) []*Port {
	out := r.portBuf[:0]
	add := func(e EndPoint) {
		if p, ok := e.(*Port); ok && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	add(c.Source)
	for _, s := range c.Sinks {
		add(s)
	}
	r.portBuf = out
	return out
}

// RememberedConnections returns the unrouted connections remembered for a
// port.
func (r *Router) RememberedConnections(port *Port) []*Connection {
	return append([]*Connection(nil), r.remembered[port]...)
}

// Reconnect re-routes every remembered connection involving the port,
// resolving ports to their *current* pins — this is what makes §3.3's core
// replacement work: "If the ports are reused, then they will be
// automatically connected to the new core ... The core can be removed,
// unrouted, and replaced with a new constant multiplier without having to
// specify connections again."
func (r *Router) Reconnect(port *Port) (err error) {
	r.enterOp()
	defer r.exitOp(&err)
	r.reconnBuf = append(r.reconnBuf[:0], r.remembered[port]...)
	for _, c := range r.reconnBuf {
		if err := r.RestoreConnection(c); err != nil {
			return fmt.Errorf("core: reconnecting %v: %w", port, err)
		}
	}
	return nil
}

// endPointCoversPin reports whether endpoint e currently resolves to pin p.
func endPointCoversPin(e EndPoint, p Pin) bool {
	var buf [4]Pin
	return slices.Contains(AppendPins(buf[:0], e), p)
}

// UsedTracks returns the number of tracks currently in use on the device
// (driven tracks), a global resource metric.
func (r *Router) UsedTracks() int { return r.Dev.OnPIPCount() }
