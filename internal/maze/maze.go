// Package maze implements the routing search algorithms behind JRoute's
// automatic calls: the recursive template router of §3.1, and one best-first
// search kernel (search.go) that four routers share by handing it a cost
// policy — the A* maze router used as the fallback (the paper suggests "a
// maze router [4][5]" and that predefined templates "reduce the search
// space"), its delay-driven variant, the plain Lee-style breadth-first
// router kept as the baseline for the search-space experiments, and the
// negotiated-congestion batch router of negotiate.go. "The JRoute API is
// independent of the algorithms used to implement it" (§3.1); here the
// algorithms are independent of the loop that runs them, so a new one is a
// new way of filling a policy, not a new loop.
//
// All algorithms are greedy and, unless asked otherwise, non-timing-driven,
// as the paper prescribes for RTR environments, and they never drive a track
// that already has a driver, so routes they find can never create contention
// (§3.4).
//
// The package works in terms of canonical device tracks and returns ordered
// PIP lists; turning them on (and unrouting them) is the caller's concern.
package maze

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/device"
)

// Rect is a tile rectangle, used to keep automatic routing out of
// reserved regions (a dynamically placed core's footprint, a partial
// reconfiguration zone). Height and Width are in tiles; the rectangle
// covers rows [Row, Row+Height) and columns [Col, Col+Width).
type Rect struct {
	Row, Col      int
	Height, Width int
}

// Contains reports whether tile (r, c) lies inside the rectangle.
func (a Rect) Contains(r, c int) bool {
	return r >= a.Row && r < a.Row+a.Height && c >= a.Col && c < a.Col+a.Width
}

// intersectsBox reports whether the rectangle overlaps the inclusive tile
// box [r0,r1] x [c0,c1].
func (a Rect) intersectsBox(r0, c0, r1, c1 int) bool {
	return r1 >= a.Row && r0 < a.Row+a.Height && c1 >= a.Col && c0 < a.Col+a.Width
}

// Options tune the automatic routers.
type Options struct {
	// UseLongLines permits long-line hops in maze search and long-line
	// candidate templates. The paper's initial implementation does not
	// use longs ("Currently long lines are not supported"); they are the
	// §6 future-work extension, benchmarked by experiment B8.
	UseLongLines bool

	// TimingDriven switches the maze cost function from resource count
	// to estimated delay, so the search minimizes source-to-sink delay
	// instead of wire usage. The paper's shipping algorithms are
	// explicitly *not* timing driven ("suitable only for non-critical
	// nets", §3.1); this is the future-work alternative, measured by
	// experiment B14.
	TimingDriven bool

	// MaxNodes caps the number of search states an automatic route may
	// expand before giving up. Zero means the default (100000).
	MaxNodes int

	// Avoid lists tile rectangles the search must stay out of: no PIP is
	// made inside one, and no wire whose physical span crosses one is
	// driven — a long or hex passing *over* a reserved region is as much
	// an intrusion as a PIP inside it, because ripping the region up later
	// would sever it. This is the routing-side half of dynamic region
	// reservation (DyNoC-style obstacle placement): the occupant claims
	// the rectangle, and every automatic route detours around it.
	Avoid []Rect
}

// intrudes reports whether driving track t via a PIP at (pr, pc) would
// intrude on an avoided rectangle: either the PIP tile itself is inside
// one, or the driven track's physical tile span crosses one. Callers test
// len(avoid) > 0 first: they ask once per edge and almost always with
// nothing to avoid.
func intrudes(dev *device.Device, avoid []Rect, pr, pc int, t device.Track) bool {
	for _, a := range avoid {
		if a.Contains(pr, pc) {
			return true
		}
	}
	r0, c0, r1, c1, ok := dev.TrackSpan(t)
	if !ok {
		return false
	}
	for _, a := range avoid {
		if a.intersectsBox(r0, c0, r1, c1) {
			return true
		}
	}
	return false
}

// PathAvoids reports whether a recorded PIP path, shifted by (dRow, dCol),
// would intrude on any of the avoided rectangles — the replay-side twin of
// the search filter, used to gate route-cache replays while a region is
// reserved.
func PathAvoids(dev *device.Device, pips []device.PIP, dRow, dCol int, avoid []Rect) bool {
	if len(avoid) == 0 {
		return false
	}
	for _, p := range pips {
		r, c := p.Row+dRow, p.Col+dCol
		t, ok := dev.CanonOK(r, c, p.To)
		if !ok {
			return true // off-device shift; let the replay sweep reject it
		}
		if intrudes(dev, avoid, r, c, t) {
			return true
		}
	}
	return false
}

// DefaultMaxNodes is the expansion cap when Options.MaxNodes is zero.
const DefaultMaxNodes = 100000

func (o Options) maxNodes() int {
	if o.MaxNodes <= 0 {
		return DefaultMaxNodes
	}
	return o.MaxNodes
}

// Scratch is the working memory of replay, templates and negotiation for a
// caller that routes again and again: a call writes into it and returns
// slices of it, valid until its next call of the same kind.
type Scratch struct {
	neg            negScratch
	ts             templateSearch       // its pips are the result of Replay and TemplateRoute
	vals           []arch.TemplateValue // Candidates' templates, their ends and views, and its givens
	ends           []int
	tmpls          [][]arch.TemplateValue
	a              *arch.Arch
	prefix, suffix run // n = 0: the template has none
}

// Route is the result of a successful search: the PIPs to turn on, in
// source-to-sink order, plus search statistics.
type Route struct {
	PIPs     []device.PIP
	Cost     int // accumulated resource cost
	Explored int // search states expanded
}

// ErrUnroutable is wrapped by errors reporting that no path exists within
// the search limits.
var ErrUnroutable = errors.New("unroutable")

// hopCost assigns the greedy cost of driving a wire of the given kind.
// Hexes cover HexLen tiles for the cost of two singles, so distance
// strongly prefers them; longs are cheaper still per tile but rarer.
func hopCost(k arch.Kind) int {
	switch k {
	case arch.KindSingle:
		return 1
	case arch.KindHex:
		return 2
	case arch.KindLongH, arch.KindLongV:
		return 3
	default: // muxes, pins
		return 1
	}
}

// delayCost is the delay of driving a wire of the given kind from the
// routing fabric, in tenths of a nanosecond: arch's delay of the template
// value DriveTemplate gives that hop. Entry to any sink pin, a pad or a
// block-RAM pin included, classifies as ClbIn.
func delayCost(k arch.Kind) int {
	switch k {
	case arch.KindSingle:
		return arch.TVNorth1.Delay()
	case arch.KindHex:
		return arch.TVNorth6.Delay()
	case arch.KindLongH:
		return arch.TVLongH.Delay()
	case arch.KindLongV:
		return arch.TVLongV.Delay()
	case arch.KindOutMux:
		return arch.TVOutMux.Delay()
	default: // sink pins; no PIP drives the other kinds
		return arch.TVClbIn.Delay()
	}
}

// TemplateRoute implements route(Pin start_pin, int end_wire, Template
// template): "The router begins at the start wire, then goes through each
// wire that it drives, as defined in the architecture class, and checks
// first if the wire's template value matches the template value specified
// by the user. If so, then it checks to make sure the wire is not already
// in use. A recursive call is made with the new wire as the starting point
// and the first element of the template removed. The call would fail if
// there is no combination of resources that are available that follow the
// template."
//
// start is the canonical source track; endWire is the local name the final
// driven wire must have (e.g. S0F3). The returned PIPs have not been turned
// on.
func TemplateRoute(dev *device.Device, start device.Track, endWire arch.Wire, tmpl []arch.TemplateValue) (*Route, error) {
	return ownedRoute(dev, func(s *Scratch) ([]device.PIP, int, error) {
		pips, explored, err := s.TemplateRoute(dev, start, endWire, device.Coord{}, false, tmpl, Options{})
		if err == errTemplateMiss {
			err = fmt.Errorf("maze: no available resources follow template %v from %s at (%d,%d): %w",
				tmpl, dev.A.WireName(start.W), start.Row, start.Col, ErrUnroutable)
		}
		return pips, explored, err
	})
}

// errTemplateMiss is a template that no free resources follow, as the
// automatic path reports it: the router tries several candidates and drops
// every miss, so a miss formats nothing. TemplateRoute, a caller's own
// template, says which template failed where.
var errTemplateMiss = fmt.Errorf("maze: no available resources follow the template: %w", ErrUnroutable)

// TemplateRoute is the one body of the template calls, into s: the first
// path from start along tmpl onto endWire — landing on endTile when pinned —
// and the states it explored. A miss formats nothing. The paper's
// route(Pin, end_wire, Template) lets the template define the destination
// implicitly, which is unambiguous for fixed-span hops; but long-line hops
// branch over every access tap, so an automatic caller that knows the sink
// location pins it.
func (s *Scratch) TemplateRoute(dev *device.Device, start device.Track, endWire arch.Wire, endTile device.Coord, pinned bool, tmpl []arch.TemplateValue, opt Options) ([]device.PIP, int, error) {
	if len(tmpl) == 0 {
		return nil, 0, fmt.Errorf("maze: empty template: %w", ErrUnroutable)
	}
	for _, v := range tmpl {
		if v == arch.TVNone {
			return nil, 0, fmt.Errorf("maze: template contains NONE: %w", ErrUnroutable)
		}
	}
	// A template hop both names a resource and *travels*: an EAST1 hop
	// leaves the router one tile east of where the wire was driven. The
	// recursion therefore tracks the current tile and only considers
	// PIPs there; after a directional hop the position advances by the
	// hop's span. Long-line hops have no fixed span, so the recursion
	// branches over every access tap of the driven long. The first hop
	// may be taken from every tap of the start track: they are the bottom
	// run of the exits stack.
	si, ok := dev.TrackIndexOK(start)
	if !ok {
		return nil, 0, errTemplateMiss // no track there, so no edges
	}
	ts := &s.ts
	*ts = templateSearch{
		dev: dev, avoid: opt.Avoid, endWire: endWire, endTile: endTile, pinned: pinned, maxNodes: opt.maxNodes(),
		pips: ts.pips[:0], used: append(ts.used[:0], si), exits: dev.AppendTaps(ts.exits[:0], start),
	}
	if len(ts.exits) == 0 {
		ts.exits = append(ts.exits, device.Coord{Row: start.Row, Col: start.Col})
	}
	for i, end := 0, len(ts.exits); i < end; i++ {
		if ts.from(si, ts.exits[i], tmpl) {
			return ts.pips, ts.explored, nil
		}
	}
	return nil, 0, errTemplateMiss
}

// ownedRoute runs call on a pooled Scratch and returns its own copy, costed.
func ownedRoute(dev *device.Device, call func(*Scratch) ([]device.PIP, int, error)) (*Route, error) {
	s := pooled[Scratch](&scratchPool)
	defer scratchPool.Put(s)
	pips, explored, err := call(s)
	if err != nil {
		return nil, err
	}
	r := &Route{PIPs: slices.Clone(pips), Explored: explored}
	for _, p := range pips {
		r.Cost += hopCost(dev.A.ClassOf(p.To).Kind)
	}
	return r, nil
}

// templateSearch is the state of one templateRoute recursion.
type templateSearch struct {
	dev      *device.Device
	avoid    []Rect
	endWire  arch.Wire
	endTile  device.Coord
	pinned   bool // the final hop must land on endTile
	maxNodes int

	explored int
	pips     []device.PIP
	used     []int32        // the start track and every track the partial path drives; a handful
	exits    []device.Coord // hop exits still to try, a stack with one run per recursion level
}

// from tries to complete the template's remaining hops from the track at
// index ci, standing at tile pos.
func (s *templateSearch) from(ci int32, pos device.Coord, rest []arch.TemplateValue) bool {
	if s.explored >= s.maxNodes {
		return false
	}
	s.explored++
	dev := s.dev
	edges, at := dev.EdgesAt(ci)
	bases := dev.BasesAt(at)
	for j := range edges {
		e := &edges[j]
		if at.Row+int(e.PRow) != pos.Row || at.Col+int(e.PCol) != pos.Col {
			continue
		}
		if dev.A.DriveTemplate(arch.Wire(e.From), arch.Wire(e.To)) != rest[0] {
			continue
		}
		ti := e.TargetIndex(&bases)
		if slices.Contains(s.used, ti) {
			continue
		}
		if len(s.avoid) > 0 && intrudes(dev, s.avoid, pos.Row, pos.Col, e.Target(at)) {
			continue
		}
		if dev.Driven(ti) {
			continue
		}
		if len(rest) == 1 {
			if arch.Wire(e.To) != s.endWire {
				continue
			}
			if s.pinned && pos != s.endTile {
				continue
			}
			s.pips = append(s.pips, e.PIP(at))
			return true
		}
		s.used = append(s.used, ti)
		s.pips = append(s.pips, e.PIP(at))
		base := len(s.exits)
		s.exits = appendHopExits(s.exits, dev, e.Target(at), pos, rest[0])
		for i, end := base, len(s.exits); i < end; i++ {
			if s.from(ti, s.exits[i], rest[1:]) {
				return true
			}
		}
		s.exits = s.exits[:base]
		s.pips = s.pips[:len(s.pips)-1]
		s.used = s.used[:len(s.used)-1]
	}
	return false
}

// appendHopExits appends the position(s) the router occupies after driving
// `target` at `at` under template value tv: the tile the hop's direction
// and span lead to for directional values, the same tile for local values,
// and every access tap for long lines.
func appendHopExits(out []device.Coord, dev *device.Device, target device.Track, at device.Coord, tv arch.TemplateValue) []device.Coord {
	switch tv {
	case arch.TVLongH, arch.TVLongV:
		n := len(out)
		out = dev.AppendTaps(out, target)
		if i := slices.Index(out[n:], at); i >= 0 {
			out = slices.Delete(out, n+i, n+i+1) // the entry tile is no exit
		}
		return out
	default:
		d := arch.TVDir(tv)
		if d == arch.DirNone {
			return append(out, at)
		}
		dr, dc := d.Delta()
		span := dev.A.TVSpan(tv)
		return append(out, device.Coord{Row: at.Row + dr*span, Col: at.Col + dc*span})
	}
}
