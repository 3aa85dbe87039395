package device

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
)

// Routing state is addressed by TrackIndex, not by a hashed key. Three
// pieces, all allocated on the first PIP a device turns on — a blank device,
// or a passive mirror that only ApplyFramesRaw's, carries none of them:
//
//   - occ: one bit per track index, set while the track has a driver. This
//     is the paper's ison() and the only state a search expansion reads.
//   - pages: one page of slots per tile, present only while some on-PIP has
//     an endpoint track canonical at that tile. A dense slot array would be
//     16 MB on every 64x96 device; routed designs touch a fraction of the
//     tiles, and a process holds several devices (session, board, mirrors).
//   - per slot, the driving PIP and two links that thread each track's
//     fanout as an intrusive list through the slots of the tracks it drives,
//     so turning a PIP on or off allocates nothing.
//
// Readers take no locks: the batch router's workers read while nothing
// mutates (see Device).

// trackSlot is the routing state of one track.
type trackSlot struct {
	tile     int32  // driving PIP's tile, row*Cols+col
	from, to uint16 // driving PIP's local wires
	next     int32  // 1 + index of the next track driven from the same source
	head     int32  // 1 + index of the first track this one drives
}

// tilePage holds the slots of the tracks canonical at one tile.
type tilePage struct {
	refs  int // endpoint tracks of on-PIPs on this page; 0 means all slots are zero
	slots []trackSlot
}

// TrackIndexOK is TrackIndex with a range check, for tracks that come from
// callers. An alias name has no slot of its own; TrackIndex would file it
// under a neighbouring track's.
func (d *Device) TrackIndexOK(t Track) (int32, bool) {
	if t.Row < 0 || t.Row >= d.Rows || t.Col < 0 || t.Col >= d.Cols || d.A.SlotOf(t.W) < 0 {
		return 0, false
	}
	return d.TrackIndex(t), true
}

// TrackAt is the inverse of TrackIndex.
func (d *Device) TrackAt(i int32) Track {
	tile, s := int(i)/d.slots, int(i)%d.slots
	return Track{Row: tile / d.Cols, Col: tile % d.Cols, W: d.A.SlotWire(s)}
}

// Driven reports whether the track at index i has a driver — IsOn for
// callers that already hold the index, as every search loop does.
func (d *Device) Driven(i int32) bool {
	w := uint(i) >> 6
	return w < uint(len(d.occ)) && d.occ[w]&(1<<(uint(i)&63)) != 0
}

// slot returns the slot of track i, or nil if its tile has no page.
func (d *Device) slot(i int32) *trackSlot {
	if d.pages == nil {
		return nil
	}
	tile := int(i) / d.slots
	pg := d.pages[tile]
	if pg == nil {
		return nil
	}
	return &pg.slots[int(i)-tile*d.slots]
}

// driverAt decodes the PIP driving track i, which must be driven.
func (d *Device) driverAt(i int32) PIP {
	s := d.slot(i)
	tile := int(s.tile)
	return PIP{Row: tile / d.Cols, Col: tile % d.Cols, From: arch.Wire(s.from), To: arch.Wire(s.to)}
}

// headOf returns the fanout-list head link of track t: 0 if t drives nothing.
func (d *Device) headOf(t Track) int32 {
	i, ok := d.TrackIndexOK(t)
	if !ok {
		return 0
	}
	if s := d.slot(i); s != nil {
		return s.head
	}
	return 0
}

// ref counts one more on-PIP endpoint on track i's page, creating the page
// (and, on a device's first PIP, the directory and the occupancy set).
func (d *Device) ref(i int32) *trackSlot {
	if d.pages == nil {
		d.occ = make([]uint64, (d.NumTracks()+63)/64)
		d.pages = make([]*tilePage, d.Rows*d.Cols)
	}
	tile := int(i) / d.slots
	pg := d.pages[tile]
	if pg == nil {
		if n := len(d.freePages); n > 0 {
			pg, d.freePages = d.freePages[n-1], d.freePages[:n-1]
		} else {
			pg = &tilePage{slots: make([]trackSlot, d.slots)}
		}
		d.pages[tile] = pg
	}
	pg.refs++
	return &pg.slots[int(i)-tile*d.slots]
}

// unref drops one endpoint from track i's page; an emptied page is kept
// for the next tile that needs one.
func (d *Device) unref(i int32) {
	tile := int(i) / d.slots
	pg := d.pages[tile]
	if pg.refs--; pg.refs == 0 {
		d.pages[tile] = nil
		d.freePages = append(d.freePages, pg)
	}
}

// link records on-PIP p from track fi to the undriven track ti, at the end
// of fi's fanout list.
func (d *Device) link(p PIP, fi, ti int32) {
	ts, fs := d.ref(ti), d.ref(fi)
	ts.tile, ts.from, ts.to = int32(p.Row*d.Cols+p.Col), uint16(p.From), uint16(p.To)
	at := &fs.head
	for *at != 0 {
		at = &d.slot(*at - 1).next
	}
	*at = ti + 1
	d.occ[ti>>6] |= 1 << (uint(ti) & 63)
	d.onPIPs++
}

// unlink forgets the on-PIP from track fi driving track ti. The fanout list
// keeps the order of the slice it replaces, whose removal moved the last
// entry into the vacated place: net tracing walks fanout in list order, the
// router seeds searches in trace order, and routes must not move.
func (d *Device) unlink(fi, ti int32) {
	ts := d.slot(ti)
	at := &d.slot(fi).head // the link that holds ti
	for *at != ti+1 {
		at = &d.slot(*at - 1).next
	}
	if ts.next == 0 {
		*at = 0
	} else {
		end := &ts.next // the link that holds the last entry
		for n := d.slot(*end - 1); n.next != 0; n = d.slot(*end - 1) {
			end = &n.next
		}
		last := *end
		*end = 0
		d.slot(last - 1).next = ts.next
		*at = last
	}
	*ts = trackSlot{head: ts.head}
	d.occ[ti>>6] &^= 1 << (uint(ti) & 63)
	d.onPIPs--
	d.unref(ti)
	d.unref(fi)
}

// resetRouting forgets every on-PIP, keeping the pages for reuse.
func (d *Device) resetRouting() {
	clear(d.occ)
	for tile, pg := range d.pages {
		if pg != nil {
			clear(pg.slots)
			pg.refs = 0
			d.pages[tile] = nil
			d.freePages = append(d.freePages, pg)
		}
	}
	d.onPIPs = 0
}

// PIPIsOn reports whether exactly this PIP is on.
func (d *Device) PIPIsOn(row, col int, fromW, toW arch.Wire) bool {
	to, ok := d.CanonOK(row, col, toW)
	if !ok {
		return false
	}
	exist, ok := d.DriverOf(to)
	return ok && exist == (PIP{row, col, fromW, toW})
}

// IsOn is the paper's ison(int row, int col, int wire): whether the wire
// named at CLB (row, col) is currently in use, i.e. has a driver.
func (d *Device) IsOn(row, col int, w arch.Wire) bool {
	t, ok := d.CanonOK(row, col, w)
	return ok && d.Driven(d.TrackIndex(t))
}

// InUse reports whether a track is part of any routed net: it is driven, or
// it sources at least one on-PIP (output pins, for instance, are never
// driven but are in use once routed).
func (d *Device) InUse(t Track) bool {
	i, ok := d.TrackIndexOK(t)
	return ok && (d.Driven(i) || d.headOf(t) != 0)
}

// DriverOf returns the PIP driving a track, if any.
func (d *Device) DriverOf(t Track) (PIP, bool) {
	i, ok := d.TrackIndexOK(t)
	if !ok || !d.Driven(i) {
		return PIP{}, false
	}
	return d.driverAt(i), true
}

// RootOf walks the driver chain of canonical track t back to its root, the
// first track on it that no on-PIP drives, and returns the root; if pips is
// not nil, the chain's PIPs are appended to *pips, t's driver first. It
// allocates nothing beyond *pips' growth. A track has one driver, so a
// chain of more PIPs than are on has closed on itself: the walk stops
// there and reports loop, with t as the root — a loop has none.
func (d *Device) RootOf(t Track, pips *[]PIP) (root Track, loop bool) {
	i, ok := d.TrackIndexOK(t)
	if !ok {
		return t, false
	}
	root = t
	for hops := 0; d.Driven(i); hops++ {
		if hops == d.onPIPs {
			return t, true
		}
		p := d.driverAt(i)
		if pips != nil {
			*pips = append(*pips, p)
		}
		root, _ = d.CanonOK(p.Row, p.Col, p.From) // SetPIP resolved it
		i = d.TrackIndex(root)
	}
	return root, false
}

// FanoutOf returns the on-PIPs sourced from a track, oldest first (see
// unlink for what a ClearPIP does to the order). The returned slice is a
// copy.
func (d *Device) FanoutOf(t Track) []PIP {
	return d.AppendFanoutOf(nil, t)
}

// AppendFanoutOf appends the on-PIPs sourced from t to buf and returns the
// extended slice — the allocation-free form of FanoutOf for hot traversal
// loops (net tracing, unrouting, fanout reuse).
func (d *Device) AppendFanoutOf(buf []PIP, t Track) []PIP {
	for l := d.headOf(t); l != 0; l = d.slot(l - 1).next {
		buf = append(buf, d.driverAt(l-1))
	}
	return buf
}

// FanoutCount returns how many on-PIPs a track sources, without copying.
func (d *Device) FanoutCount(t Track) int {
	n := 0
	for l := d.headOf(t); l != 0; l = d.slot(l - 1).next {
		n++
	}
	return n
}

// AppendTracksOver appends to buf the tracks through which a routed net
// touches the height x width tile rectangle at (row, col): every driven
// track whose TrackSpan meets the rectangle — a hex driven and tapped
// outside it still passes over it — and every undriven track canonical
// inside it that sources an on-PIP (a net's root pin). It reads the
// occupancy words and slot pages of the rectangle, of the HexLen tiles
// south and west of it (segmented wires are canonical at their south or
// west end) and of the tiles where the long lines of its rows and columns
// are canonical, so the cost follows the rectangle, not the design. The
// rectangle may hang over the array edge. Order: tile-major, driven tracks
// before roots within a tile.
func (d *Device) AppendTracksOver(buf []Track, row, col, height, width int) []Track {
	if d.pages == nil || height <= 0 || width <= 0 {
		return buf
	}
	scan := func(tr, tc int) {
		tile := tr*d.Cols + tc
		pg := d.pages[tile]
		if pg == nil {
			return
		}
		lo, hi := tile*d.slots, (tile+1)*d.slots
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			for word := d.occ[wi]; word != 0; word &= word - 1 {
				i := wi<<6 + bits.TrailingZeros64(word)
				if i < lo || i >= hi {
					continue
				}
				t := Track{Row: tr, Col: tc, W: d.A.SlotWire(i - lo)}
				if r0, c0, r1, c1, ok := d.TrackSpan(t); ok &&
					r1 >= row && r0 < row+height && c1 >= col && c0 < col+width {
					buf = append(buf, t)
				}
			}
		}
		if tr < row || tr >= row+height || tc < col || tc >= col+width {
			return
		}
		for s := range pg.slots {
			if pg.slots[s].head != 0 && !d.Driven(int32(lo+s)) {
				buf = append(buf, Track{Row: tr, Col: tc, W: d.A.SlotWire(s)})
			}
		}
	}
	reach := d.A.HexLen
	rLo, rHi := max(row-reach, 0), min(row+height, d.Rows)
	cLo, cHi := max(col-reach, 0), min(col+width, d.Cols)
	for tr := rLo; tr < rHi; tr++ {
		for tc := cLo; tc < cHi; tc++ {
			scan(tr, tc)
		}
	}
	// Long lines: horizontal ones are canonical at column 0 of their row,
	// vertical ones at row 0 of their column.
	if cLo > 0 {
		for tr := max(row, 0); tr < rHi; tr++ {
			scan(tr, 0)
		}
	}
	if rLo > 0 {
		for tc := max(col, 0); tc < cHi; tc++ {
			scan(0, tc)
		}
	}
	return buf
}

// OnPIPCount returns the number of PIPs currently on.
func (d *Device) OnPIPCount() int { return d.onPIPs }

// AllOnPIPs returns every on-PIP, in ascending track-index order of the
// track each one drives (tile-major, wire-minor).
func (d *Device) AllOnPIPs() []PIP {
	return d.AppendAllOnPIPs(make([]PIP, 0, d.onPIPs))
}

// AppendAllOnPIPs appends every on-PIP to buf, in AllOnPIPs' order, and
// returns the extended slice, for callers that poll repeatedly.
func (d *Device) AppendAllOnPIPs(buf []PIP) []PIP {
	for wi, word := range d.occ {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, d.driverAt(int32(wi<<6+bits.TrailingZeros64(word))))
		}
	}
	return buf
}

// CheckConsistency verifies the internal invariants of the routing state:
// every driven track's PIP appears exactly once in its source's fanout list
// and every fanout entry is a driven track with that source, every on-PIP
// has its configuration bit set, and the occupancy set, the on-PIP counter
// and the page reference counts agree with the slots. It is used by
// property tests and available to debug tools.
func (d *Device) CheckConsistency() error {
	driven, listed := 0, 0
	refs := make(map[int]int) // tile -> endpoints counted from the slots
	for tile, pg := range d.pages {
		if pg == nil {
			continue
		}
		for j := range pg.slots {
			i := int32(tile*d.slots + j)
			s := &pg.slots[j]
			if !d.Driven(i) {
				if s.tile != 0 || s.from != 0 || s.to != 0 || s.next != 0 {
					return fmt.Errorf("device: undriven track %v holds driver state %+v", d.TrackAt(i), *s)
				}
			} else {
				driven++
				p := d.driverAt(i)
				from, to, err := d.validatePIP(p)
				if err != nil {
					return fmt.Errorf("device: track %v driven by invalid PIP %v: %w", d.TrackAt(i), p, err)
				}
				if d.TrackIndex(to) != i {
					return fmt.Errorf("device: track %v holds PIP %v, which drives %v", d.TrackAt(i), p, to)
				}
				count := 0
				for l := d.headOf(from); l != 0; l = d.slot(l - 1).next {
					if l-1 == i {
						count++
					}
				}
				if count != 1 {
					return fmt.Errorf("device: PIP %v appears %d times in fanout of %v", p, count, from)
				}
				refs[tile]++
				refs[int(d.TrackIndex(from))/d.slots]++
				if bit, ok := d.layout.pipBit(p.From, p.To); ok {
					v, err := d.bits.GetBit(p.Row, p.Col, bit)
					if err != nil {
						return err
					}
					if !v {
						return fmt.Errorf("device: on-PIP %v has a clear configuration bit", p)
					}
				}
			}
			for l := s.head; l != 0; l = d.slot(l - 1).next {
				if listed++; listed > d.onPIPs {
					return fmt.Errorf("device: fanout lists hold more than the %d on-PIPs (cycle at %v?)", d.onPIPs, d.TrackAt(i))
				}
				if !d.Driven(l-1) || d.slot(l-1) == nil {
					return fmt.Errorf("device: fanout of %v lists undriven track %v", d.TrackAt(i), d.TrackAt(l-1))
				}
				p := d.driverAt(l - 1)
				if from, ok := d.CanonOK(p.Row, p.Col, p.From); !ok || d.TrackIndex(from) != i {
					return fmt.Errorf("device: fanout PIP %v filed under wrong source %v", p, d.TrackAt(i))
				}
			}
		}
	}
	occupied := 0
	for _, word := range d.occ {
		occupied += bits.OnesCount64(word)
	}
	if driven != d.onPIPs || listed != d.onPIPs || occupied != d.onPIPs {
		return fmt.Errorf("device: %d driven slots, %d fanout entries, %d occupancy bits vs %d on-PIPs",
			driven, listed, occupied, d.onPIPs)
	}
	for tile, pg := range d.pages {
		if pg != nil && (pg.refs == 0 || pg.refs != refs[tile]) {
			return fmt.Errorf("device: tile %d page counts %d endpoints, slots hold %d", tile, pg.refs, refs[tile])
		}
	}
	return nil
}
