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

// CanonOK is Canon without error construction, for search inner loops.
func (d *Device) CanonOK(row, col int, w arch.Wire) (Track, bool) {
	if row < 0 || row >= d.Rows || col < 0 || col >= d.Cols {
		return Track{}, false
	}
	a := d.A
	c := a.ClassOf(w)
	switch c.Kind {
	case arch.KindOutPin, arch.KindOutMux, arch.KindInput, arch.KindCtrl:
		return Track{row, col, w}, true
	case arch.KindIOBIn, arch.KindIOBOut:
		if !d.boundary(row, col) {
			return Track{}, false
		}
		return Track{row, col, w}, true
	case arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		if !a.BRAMColumn(col) {
			return Track{}, false
		}
		return Track{row, col, w}, true
	case arch.KindGClk:
		return Track{0, 0, w}, true
	case arch.KindOutAlias:
		if col == 0 {
			return Track{}, false
		}
		return Track{row, col - 1, arch.OutPin(c.Index)}, true
	case arch.KindSingle:
		or, oc := row, col
		dir := c.Dir
		if dir == arch.South || dir == arch.West {
			dr, dc := dir.Delta()
			or, oc = row+dr, col+dc
			dir = dir.Opposite()
		}
		dr, dc := dir.Delta()
		fr, fc := or+dr, oc+dc
		if or < 0 || or >= d.Rows || oc < 0 || oc >= d.Cols ||
			fr < 0 || fr >= d.Rows || fc < 0 || fc >= d.Cols {
			return Track{}, false
		}
		return Track{or, oc, a.Single(dir, c.Index)}, true
	case arch.KindHex:
		or, oc := row, col
		dir := c.Dir
		if dir == arch.South || dir == arch.West {
			dr, dc := dir.Delta()
			or, oc = row+dr*a.HexLen, col+dc*a.HexLen
			dir = dir.Opposite()
		}
		dr, dc := dir.Delta()
		fr, fc := or+dr*a.HexLen, oc+dc*a.HexLen
		if or < 0 || or >= d.Rows || oc < 0 || oc >= d.Cols ||
			fr < 0 || fr >= d.Rows || fc < 0 || fc >= d.Cols {
			return Track{}, false
		}
		return Track{or, oc, a.Hex(dir, c.Index)}, true
	case arch.KindHexMid:
		dr, dc := c.Dir.Delta()
		half := a.HexLen / 2
		or, oc := row-dr*half, col-dc*half
		fr, fc := row+dr*half, col+dc*half
		if or < 0 || or >= d.Rows || oc < 0 || oc >= d.Cols ||
			fr < 0 || fr >= d.Rows || fc < 0 || fc >= d.Cols {
			return Track{}, false
		}
		return Track{or, oc, a.Hex(c.Dir, c.Index)}, true
	case arch.KindLongH:
		return Track{row, 0, w}, true
	case arch.KindLongV:
		return Track{0, col, w}, true
	default:
		return Track{}, false
	}
}

// AppendTaps appends to dst the tiles at which a canonical track can be
// tapped as a PIP source, in canonical order, and returns the extended
// slice. Global clocks append nothing: they are available at every tile and
// are handled specially by clock routing.
func (d *Device) AppendTaps(dst []Coord, t Track) []Coord {
	a := d.A
	c := a.ClassOf(t.W)
	switch c.Kind {
	case arch.KindOutPin:
		dst = append(dst, Coord{t.Row, t.Col})
		if t.Col+1 < d.Cols {
			dst = append(dst, Coord{t.Row, t.Col + 1}) // direct connect east
		}
		return dst
	case arch.KindOutMux, arch.KindInput, arch.KindCtrl, arch.KindIOBIn, arch.KindIOBOut,
		arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		return append(dst, Coord{t.Row, t.Col})
	case arch.KindSingle:
		dr, dc := c.Dir.Delta()
		return append(dst, Coord{t.Row, t.Col}, Coord{t.Row + dr, t.Col + dc})
	case arch.KindHex:
		dr, dc := c.Dir.Delta()
		half := a.HexLen / 2
		return append(dst,
			Coord{t.Row, t.Col},
			Coord{t.Row + dr*half, t.Col + dc*half},
			Coord{t.Row + dr*a.HexLen, t.Col + dc*a.HexLen})
	case arch.KindLongH:
		for col := 0; col < d.Cols; col += a.LongAccessPeriod {
			dst = append(dst, Coord{t.Row, col})
		}
		return dst
	case arch.KindLongV:
		for row := 0; row < d.Rows; row += a.LongAccessPeriod {
			dst = append(dst, Coord{row, t.Col})
		}
		return dst
	default:
		return dst
	}
}

// TrackSpan returns the inclusive tile bounding box [r0,r1] x [c0,c1] of a
// canonical track's physical extent — every tile the wire passes over, not
// just the tiles where it can be tapped or driven. A hex driven and tapped
// outside a region still crosses every tile in between; region-scoped
// rip-up and avoid-region routing both need that extent. Wires are straight
// segments on this fabric, so the box is the track's canonical tile and its
// far end, computed from the wire class as MinTapDistance is (the device
// tests pin it to the bounding box of AppendTaps); a long line spans its whole
// row or column. Tracks with no tap tiles (global clocks, present
// everywhere) return ok=false.
func (d *Device) TrackSpan(t Track) (r0, c0, r1, c1 int, ok bool) {
	a := d.A
	c := a.ClassOf(t.W)
	reach := 0
	switch c.Kind {
	case arch.KindLongH:
		return t.Row, 0, t.Row, d.Cols - 1, true
	case arch.KindLongV:
		return 0, t.Col, d.Rows - 1, t.Col, true
	case arch.KindOutPin:
		if t.Col+1 < d.Cols {
			return t.Row, t.Col, t.Row, t.Col + 1, true // direct connect east
		}
		return t.Row, t.Col, t.Row, t.Col, true
	case arch.KindOutMux, arch.KindInput, arch.KindCtrl, arch.KindIOBIn, arch.KindIOBOut,
		arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		return t.Row, t.Col, t.Row, t.Col, true
	case arch.KindSingle:
		reach = 1
	case arch.KindHex:
		reach = a.HexLen
	default:
		return 0, 0, 0, 0, false
	}
	dr, dc := c.Dir.Delta()
	r0, c0, r1, c1 = t.Row, t.Col, t.Row+dr*reach, t.Col+dc*reach
	if r1 < r0 {
		r0, r1 = r1, r0
	}
	if c1 < c0 {
		c0, c1 = c1, c0
	}
	return r0, c0, r1, c1, true
}

// MinTapDistance returns the Manhattan distance from the nearest tap tile
// of track t to tile c — "min over AppendTaps(t)" without a tap list —
// that the search heuristics call once per frontier pop. Tracks with no tap
// tiles (global clocks, reachable everywhere) return 0. The tap positions
// mirror AppendTaps exactly; the device consistency tests pin the
// correspondence.
func (d *Device) MinTapDistance(t Track, c Coord) int {
	a := d.A
	cl := a.ClassOf(t.W)
	md := func(r, co int) int { return absInt(r-c.Row) + absInt(co-c.Col) }
	switch cl.Kind {
	case arch.KindOutPin:
		best := md(t.Row, t.Col)
		if t.Col+1 < d.Cols {
			if v := md(t.Row, t.Col+1); v < best {
				best = v
			}
		}
		return best
	case arch.KindOutMux, arch.KindInput, arch.KindCtrl, arch.KindIOBIn, arch.KindIOBOut,
		arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		return md(t.Row, t.Col)
	case arch.KindSingle:
		dr, dc := cl.Dir.Delta()
		best := md(t.Row, t.Col)
		if v := md(t.Row+dr, t.Col+dc); v < best {
			best = v
		}
		return best
	case arch.KindHex:
		dr, dc := cl.Dir.Delta()
		half := a.HexLen / 2
		best := md(t.Row, t.Col)
		if v := md(t.Row+dr*half, t.Col+dc*half); v < best {
			best = v
		}
		if v := md(t.Row+dr*a.HexLen, t.Col+dc*a.HexLen); v < best {
			best = v
		}
		return best
	case arch.KindLongH:
		return absInt(t.Row-c.Row) + nearestPeriodic(c.Col, a.LongAccessPeriod, d.Cols)
	case arch.KindLongV:
		return absInt(t.Col-c.Col) + nearestPeriodic(c.Row, a.LongAccessPeriod, d.Rows)
	default:
		return 0
	}
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

// LocalName returns the name of canonical track t at tile tap, which must
// be one of its tap tiles (or, for drive-only positions, an endpoint).
// It returns arch.Invalid if t has no name there.
func (d *Device) LocalName(t Track, tap Coord) arch.Wire {
	a := d.A
	c := a.ClassOf(t.W)
	switch c.Kind {
	case arch.KindOutPin:
		if tap.Row == t.Row && tap.Col == t.Col {
			return t.W
		}
		if tap.Row == t.Row && tap.Col == t.Col+1 {
			return arch.OutAlias(c.Index)
		}
	case arch.KindOutMux, arch.KindInput, arch.KindCtrl, arch.KindIOBIn, arch.KindIOBOut,
		arch.KindBRAMIn, arch.KindBRAMClk, arch.KindBRAMOut:
		if tap.Row == t.Row && tap.Col == t.Col {
			return t.W
		}
	case arch.KindGClk:
		return t.W
	case arch.KindSingle:
		dr, dc := c.Dir.Delta()
		if tap.Row == t.Row && tap.Col == t.Col {
			return t.W
		}
		if tap.Row == t.Row+dr && tap.Col == t.Col+dc {
			return a.Single(c.Dir.Opposite(), c.Index)
		}
	case arch.KindHex:
		dr, dc := c.Dir.Delta()
		half := a.HexLen / 2
		switch {
		case tap.Row == t.Row && tap.Col == t.Col:
			return t.W
		case tap.Row == t.Row+dr*half && tap.Col == t.Col+dc*half:
			return a.HexMid(c.Dir, c.Index)
		case tap.Row == t.Row+dr*a.HexLen && tap.Col == t.Col+dc*a.HexLen:
			return a.Hex(c.Dir.Opposite(), c.Index)
		}
	case arch.KindLongH:
		if tap.Row == t.Row {
			return t.W
		}
	case arch.KindLongV:
		if tap.Col == t.Col {
			return t.W
		}
	}
	return arch.Invalid
}

// DriveAllowedAt reports whether a PIP at tile `at` may drive track t:
// singles at both endpoints; hexes at the origin always and at the far
// endpoint only if the index is bidirectional; longs at access tiles; muxes
// and pins only at their own tile; output pins and global clocks never
// (they are sources).
func (d *Device) DriveAllowedAt(t Track, at Coord) bool {
	a := d.A
	c := a.ClassOf(t.W)
	switch c.Kind {
	case arch.KindOutMux, arch.KindInput, arch.KindCtrl:
		return at.Row == t.Row && at.Col == t.Col
	case arch.KindIOBOut:
		return at.Row == t.Row && at.Col == t.Col && d.boundary(at.Row, at.Col)
	case arch.KindBRAMIn, arch.KindBRAMClk:
		return at.Row == t.Row && at.Col == t.Col && a.BRAMColumn(at.Col)
	case arch.KindSingle:
		dr, dc := c.Dir.Delta()
		return (at.Row == t.Row && at.Col == t.Col) ||
			(at.Row == t.Row+dr && at.Col == t.Col+dc)
	case arch.KindHex:
		if at.Row == t.Row && at.Col == t.Col {
			return true
		}
		dr, dc := c.Dir.Delta()
		return a.HexBidirectional(c.Index) &&
			at.Row == t.Row+dr*a.HexLen && at.Col == t.Col+dc*a.HexLen
	case arch.KindLongH:
		return at.Row == t.Row && at.Col%a.LongAccessPeriod == 0
	case arch.KindLongV:
		return at.Col == t.Col && at.Row%a.LongAccessPeriod == 0
	default:
		return false
	}
}

// TapAllowedAt reports whether a PIP at tile `at` may use track t as its
// source. Inputs and control pins are pure sinks; global clocks may be
// tapped at any tile (onto clock pins only).
func (d *Device) TapAllowedAt(t Track, at Coord) bool {
	c := d.A.ClassOf(t.W)
	switch c.Kind {
	case arch.KindInput, arch.KindCtrl, arch.KindIOBOut, arch.KindBRAMIn, arch.KindBRAMClk:
		return false
	case arch.KindIOBIn:
		return at.Row == t.Row && at.Col == t.Col && d.boundary(at.Row, at.Col)
	case arch.KindBRAMOut:
		return at.Row == t.Row && at.Col == t.Col && d.A.BRAMColumn(at.Col)
	case arch.KindGClk:
		return at.Row >= 0 && at.Row < d.Rows && at.Col >= 0 && at.Col < d.Cols
	case arch.KindLongH:
		return at.Row == t.Row && at.Col%d.A.LongAccessPeriod == 0
	case arch.KindLongV:
		return at.Col == t.Col && at.Row%d.A.LongAccessPeriod == 0
	default:
		return d.LocalName(t, at) != arch.Invalid
	}
}
