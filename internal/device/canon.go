package device

import (
	"fmt"

	"repro/internal/arch"
)

// boundary reports whether a tile sits on the array edge, where the IOBs
// live (§6 future work, implemented).
func (d *Device) boundary(row, col int) bool {
	return row == 0 || row == d.Rows-1 || col == 0 || col == d.Cols-1
}

// Canon resolves a wire reference (row, col, w) to the canonical track it
// names, validating that the resource exists on this device (a single
// leaving the east edge of the array, for instance, does not exist).
func (d *Device) Canon(row, col int, w arch.Wire) (Track, error) {
	t, ok := d.CanonOK(row, col, w)
	if !ok {
		return Track{}, fmt.Errorf("device: %s does not name a resource at (%d,%d) on a %dx%d array",
			d.A.WireName(w), row, col, d.Rows, d.Cols)
	}
	return t, nil
}

// CanonOK is Canon without error construction, for search inner loops. A
// name resolves through the tap that names it, the inverse of tapShapes:
// the track exists where all its taps but an optional one lie on the array.
// The rules no tap encodes stay here: pads only on the boundary, block-RAM
// pins only in BRAM columns, global clocks canonical at (0,0), and long
// lines at their row's or column's origin.
func (d *Device) CanonOK(row, col int, w arch.Wire) (Track, bool) {
	if !d.onArray(row, col) {
		return Track{}, false
	}
	switch d.A.ClassOf(w).Kind {
	case arch.KindInvalid:
		return Track{}, false
	case arch.KindIOBIn, arch.KindIOBOut:
		if !d.boundary(row, col) {
			return Track{}, false
		}
	case arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		if !d.A.BRAMColumn(col) {
			return Track{}, false
		}
	case arch.KindGClk:
		return Track{0, 0, w}, true
	case arch.KindLongH:
		return Track{row, 0, w}, true
	case arch.KindLongV:
		return Track{0, col, w}, true
	}
	by := d.shapes[w].by
	t := Track{row - int(by.dr), col - int(by.dc), by.name}
	s := &d.shapes[t.W]
	for _, tp := range s.taps[:s.n] {
		if !tp.opt && !d.onArray(t.Row+int(tp.dr), t.Col+int(tp.dc)) {
			return Track{}, false
		}
	}
	return t, true
}

// A wire's geometry is written down once, as its tapShape: the tiles at
// which the track the wire names from its canonical tile can be tapped, and
// the track's name and drive rule at each. AppendTaps, TrackSpan,
// MinTapDistance, LocalName, DriveAllowedAt and TapAllowedAt all read it,
// CanonOK reads its inverse, and SinkDist a table of its tap distances.

// tapShape is one wire's taps, each a step from the track's canonical
// tile, in AppendTaps order. A tap off the array is no tap (an output
// pin's direct connect at the east edge). A long line's one tap repeats
// instead, at every LongAccessPeriod-th tile of its row (KindLongH) or
// column (KindLongV). Global clocks, present at every tile, and alias
// names have no taps. by is the inverse: the tap through which the wire
// names a track, with that track's canonical wire as its name.
type tapShape struct {
	n    uint8
	long arch.Kind // KindLongH or KindLongV: the tap is periodic
	taps [3]tap
	by   tap
}

// tap is one tap of a shape: its step from the canonical tile, the track's
// local name there, whether a PIP at that tile may drive the track, and
// whether the track exists without the tap (opt).
type tap struct {
	dr, dc     int16
	drive, opt bool
	name       arch.Wire
}

// tapShapes derives the shape of every canonical wire of a from its class,
// and files each tap under the name it gives the track: the inverse.
func tapShapes(a *arch.Arch) []tapShape {
	shapes := make([]tapShape, a.WireCount())
	for s := range a.Slots() {
		w := a.SlotWire(s)
		c := a.ClassOf(w)
		dr, dc := c.Dir.Delta()
		along := func(k int, name arch.Wire, drive bool) tap {
			return tap{dr: int16(dr * k), dc: int16(dc * k), drive: drive, name: name}
		}
		own := tap{name: w, drive: true}
		var taps []tap
		switch c.Kind {
		case arch.KindOutPin: // a source, tapped too by the east neighbour's direct connect
			taps = []tap{{name: w}, {dc: 1, opt: true, name: arch.OutAlias(c.Index)}}
		case arch.KindOutMux, arch.KindInput, arch.KindCtrl, arch.KindIOBIn, arch.KindIOBOut,
			arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
			own.drive = c.Kind != arch.KindIOBIn && c.Kind != arch.KindBRAMOut // sources
			taps = []tap{own}
		case arch.KindSingle: // driven at either end
			taps = []tap{own, along(1, a.Single(c.Dir.Opposite(), c.Index), true)}
		case arch.KindHex: // driven at its origin, and at its far end if bidirectional
			taps = []tap{own, along(a.HexLen/2, a.HexMid(c.Dir, c.Index), false),
				along(a.HexLen, a.Hex(c.Dir.Opposite(), c.Index), a.HexBidirectional(c.Index))}
		case arch.KindLongH, arch.KindLongV: // driven at every access tile
			taps, shapes[w].long = []tap{own}, c.Kind
		}
		shapes[w].n = uint8(copy(shapes[w].taps[:], taps))
		for _, tp := range taps {
			shapes[tp.name].by = tap{dr: tp.dr, dc: tp.dc, name: w}
		}
	}
	return shapes
}

var noTaps tapShape

// shape returns the taps of wire w.
func (d *Device) shape(w arch.Wire) *tapShape {
	if uint(w) < uint(len(d.shapes)) {
		return &d.shapes[w]
	}
	return &noTaps
}

// onArray reports whether a tile lies on the array.
func (d *Device) onArray(row, col int) bool {
	return uint(row) < uint(d.Rows) && uint(col) < uint(d.Cols)
}

// AppendTaps appends to dst the tiles at which a canonical track can be
// tapped as a PIP source, in canonical order, and returns the extended
// slice. Global clocks append nothing: they are available at every tile and
// are handled specially by clock routing.
func (d *Device) AppendTaps(dst []Coord, t Track) []Coord {
	s := d.shape(t.W)
	switch s.long {
	case arch.KindLongH:
		for col := 0; col < d.Cols; col += d.A.LongAccessPeriod {
			dst = append(dst, Coord{t.Row, col})
		}
	case arch.KindLongV:
		for row := 0; row < d.Rows; row += d.A.LongAccessPeriod {
			dst = append(dst, Coord{row, t.Col})
		}
	default:
		for _, tp := range s.taps[:s.n] {
			if r, c := t.Row+int(tp.dr), t.Col+int(tp.dc); d.onArray(r, c) {
				dst = append(dst, Coord{r, c})
			}
		}
	}
	return dst
}

// TrackSpan returns the inclusive tile bounding box [r0,r1] x [c0,c1] of a
// canonical track's physical extent — every tile the wire passes over, not
// just the tiles where it can be tapped or driven. A hex driven and tapped
// outside a region still crosses every tile in between; region-scoped
// rip-up and avoid-region routing both need that extent. Wires are straight
// segments on this fabric with a tap at each end, so the box is that of
// its taps; a long line spans its whole row or column. Tracks with no tap
// tiles (global clocks, present everywhere) return ok=false.
func (d *Device) TrackSpan(t Track) (r0, c0, r1, c1 int, ok bool) {
	s := d.shape(t.W)
	switch s.long {
	case arch.KindLongH:
		return t.Row, 0, t.Row, d.Cols - 1, true
	case arch.KindLongV:
		return 0, t.Col, d.Rows - 1, t.Col, true
	}
	for _, tp := range s.taps[:s.n] {
		r, c := t.Row+int(tp.dr), t.Col+int(tp.dc)
		switch {
		case !d.onArray(r, c):
		case !ok:
			r0, c0, r1, c1, ok = r, c, r, c, true
		default:
			r0, c0, r1, c1 = min(r0, r), min(c0, c), max(r1, r), max(c1, c)
		}
	}
	return r0, c0, r1, c1, ok
}

// MinTapDistance returns the Manhattan distance from the nearest tap tile
// of track t to tile c — "min over AppendTaps(t)" without a tap list —
// that the search heuristics call once per frontier pop. Tracks with no tap
// tiles (global clocks, reachable everywhere) return 0.
func (d *Device) MinTapDistance(t Track, c Coord) int {
	s := d.shape(t.W)
	switch s.long {
	case arch.KindLongH:
		return absInt(t.Row-c.Row) + nearestPeriodic(c.Col, d.A.LongAccessPeriod, d.Cols)
	case arch.KindLongV:
		return absInt(t.Col-c.Col) + nearestPeriodic(c.Row, d.A.LongAccessPeriod, d.Rows)
	}
	if s.n == 0 {
		return 0
	}
	best := absInt(t.Row-c.Row) + absInt(t.Col-c.Col) // tap 0, the canonical tile
	for _, tp := range s.taps[1:s.n] {
		r, co := t.Row+int(tp.dr), t.Col+int(tp.dc)
		if v := absInt(r-c.Row) + absInt(co-c.Col); v < best && d.onArray(r, co) {
			best = v
		}
	}
	return best
}

// tapTable is MinTapDistance by table. Tap k of a shape, at step (dr, dc)
// from the canonical tile, is |Δr−dr|+|Δc−dc| from a tile at offset
// (Δr, Δc) from it, and past the largest tap step on an axis that term is
// linear in the offset. So what a shape's taps save over its canonical
// tile, |Δr|+|Δc| less the least of them, depends only on the offset
// clamped to ±reach: corr holds it, one square of offsets per distinct
// shape. Wires whose taps take the same steps share a square.
type tapTable struct {
	center []int32 // by wire: the index in corr of its square's offset (0, 0)
	corr   []int8  // by square, then (Δr+reach)·side + Δc+reach
	reach  int     // the largest tap step on either axis
	side   int     // 2·reach+1
}

func newTapTable(shapes []tapShape) tapTable {
	t := tapTable{center: make([]int32, len(shapes))}
	for _, s := range shapes {
		for _, tp := range s.taps[:s.n] {
			t.reach = max(t.reach, absInt(int(tp.dr)), absInt(int(tp.dc)))
		}
	}
	t.side = 2*t.reach + 1
	type steps struct {
		n    uint8
		taps [3][2]int16
	}
	squares := map[steps]int32{}
	for w, s := range shapes {
		k := steps{n: s.n}
		for i, tp := range s.taps[:s.n] {
			k.taps[i] = [2]int16{tp.dr, tp.dc}
		}
		mid, ok := squares[k]
		if !ok {
			mid = int32(len(t.corr) + t.reach*t.side + t.reach)
			squares[k] = mid
			for r := -t.reach; r <= t.reach; r++ {
				for c := -t.reach; c <= t.reach; c++ {
					best := absInt(r) + absInt(c)
					for _, tp := range s.taps[:s.n] {
						best = min(best, absInt(r-int(tp.dr))+absInt(c-int(tp.dc)))
					}
					t.corr = append(t.corr, int8(absInt(r)+absInt(c)-best))
				}
			}
		}
		t.center[w] = mid
	}
	return t
}

// SinkDist is MinTapDistance to one sink tile for the tracks that edges
// drive, read from a table beside the tap shapes: a search pays two loads
// an edge where MinTapDistance resolves the target's shape and walks its
// taps.
type SinkDist struct {
	tapTable
	longRow, longCol int // from the sink to the nearest access row of a vertical long, column of a horizontal
}

// SinkDist returns the measure to tile c.
func (d *Device) SinkDist(c Coord) SinkDist {
	p := d.A.LongAccessPeriod
	return SinkDist{d.adjc.taps, nearestPeriodic(c.Row, p, d.Rows), nearestPeriodic(c.Col, p, d.Cols)}
}

// Of is MinTapDistance(e.Target(at), c) for an edge of a track canonical at
// tile at, given (dr, dc) = c − at. It is exact for every edge: CanonOK puts
// each tap of a track on the array but an optional one, and the optional
// tap, an output pin's east direct connect, belongs to a source that no
// PIP drives.
func (s *SinkDist) Of(e *Edge, dr, dc int) int {
	if e.Kind == arch.KindLongH || e.Kind == arch.KindLongV {
		return s.long(e, dr, dc)
	}
	r, c := dr-int(e.TRow), dc-int(e.TCol)
	m := s.reach
	r0, c0 := min(max(r, -m), m), min(max(c, -m), m)
	return absInt(r) + absInt(c) - int(s.corr[int(s.center[e.TW])+r0*s.side+c0])
}

// long is Of for a long line: its distance across, and the sink's to the
// nearest access tile along it.
func (s *SinkDist) long(e *Edge, dr, dc int) int {
	if e.Kind == arch.KindLongH {
		return absInt(dr-int(e.TRow)) + s.longCol
	}
	return absInt(dc-int(e.TCol)) + s.longRow
}

// nearestPeriodic is the distance from x (assumed in [0, limit)) to the
// nearest multiple of period that is still below limit.
func nearestPeriodic(x, period, limit int) int {
	if x < 0 {
		return -x
	}
	lo := (x / period) * period
	best := x - lo
	if hi := lo + period; hi < limit && hi-x < best {
		best = hi - x
	}
	return best
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// tapAt returns the tap of track t at tile at, if at is one of its taps.
func (d *Device) tapAt(t Track, at Coord) (tap, bool) {
	s := d.shape(t.W)
	if !d.onArray(at.Row, at.Col) {
		return tap{}, false
	}
	switch s.long {
	case arch.KindLongH:
		return s.taps[0], at.Row == t.Row && at.Col%d.A.LongAccessPeriod == 0
	case arch.KindLongV:
		return s.taps[0], at.Col == t.Col && at.Row%d.A.LongAccessPeriod == 0
	}
	dr, dc := at.Row-t.Row, at.Col-t.Col
	for _, tp := range s.taps[:s.n] {
		if int(tp.dr) == dr && int(tp.dc) == dc {
			return tp, true
		}
	}
	return tap{}, false
}

// LocalName returns the name of canonical track t at tile at, which must
// be one of its tap tiles; a global clock has its own name everywhere.
// It returns arch.Invalid if t has no name there.
func (d *Device) LocalName(t Track, at Coord) arch.Wire {
	if d.A.ClassOf(t.W).Kind == arch.KindGClk {
		return t.W
	}
	if tp, ok := d.tapAt(t, at); ok {
		return tp.name
	}
	return arch.Invalid
}

// DriveAllowedAt reports whether a PIP at tile `at` may drive canonical
// track t: singles at both endpoints; hexes at the origin always and at the
// far endpoint only if the index is bidirectional; longs at access tiles;
// muxes and pins only at their own tile; output pins, pads' and block RAMs'
// outputs and global clocks never (they are sources).
func (d *Device) DriveAllowedAt(t Track, at Coord) bool {
	tp, ok := d.tapAt(t, at)
	return ok && tp.drive
}

// TapAllowedAt reports whether a PIP at tile `at` may use canonical track t
// as its source: at any of its taps unless it is a sink pin; global clocks
// at any tile (onto clock pins only).
func (d *Device) TapAllowedAt(t Track, at Coord) bool {
	k := d.A.ClassOf(t.W).Kind
	if k == arch.KindGClk {
		return d.onArray(at.Row, at.Col)
	}
	_, ok := d.tapAt(t, at)
	return ok && !k.IsSink()
}
