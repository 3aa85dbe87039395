package maze

import (
	"repro/internal/arch"
	"repro/internal/device"
)

// CandidateTemplates generates the "set of unique and predefined templates
// that would get from the source to the sink" which route(src, sink) tries
// before falling back on the maze algorithm (§3.1). The set is ordered
// cheapest-first: local resources (feedback, direct) when applicable, then
// hex+single decompositions in both axis orders, then single-only
// decompositions for short spans, then long-line variants when enabled.
//
// src must be a CLB output pin or OUT mux reference; sinkWire is the local
// wire name at the sink tile (typically an input pin).
func CandidateTemplates(a *arch.Arch, src device.Track, sinkTile device.Coord, sinkWire arch.Wire, opt Options) [][]arch.TemplateValue {
	var s Scratch // the result keeps its lists
	return s.Candidates(a, src, sinkTile, sinkWire, opt)
}

// Candidates is CandidateTemplates into s: the templates are runs of one
// list of values closed by end offsets, and the slice returned views them.
func (s *Scratch) Candidates(a *arch.Arch, src device.Track, sinkTile device.Coord, sinkWire arch.Wire, opt Options) [][]arch.TemplateValue {
	dr := sinkTile.Row - src.Row
	dc := sinkTile.Col - src.Col

	srcKind := a.ClassOf(src.W).Kind
	sinkKind := a.ClassOf(sinkWire).Kind

	s.a, s.vals, s.ends = a, s.vals[:0], s.ends[:0]
	s.prefix, s.suffix = run{arch.TVOutMux, 0}, run{arch.TVClbIn, 0}
	if srcKind == arch.KindOutPin {
		s.prefix.n = 1
	}
	sinkIsPin := sinkKind == arch.KindInput || sinkKind == arch.KindCtrl || sinkKind == arch.KindIOBOut || sinkKind == arch.KindBRAMIn
	if sinkIsPin {
		s.suffix.n = 1
	}

	// Local resources bypass the routing matrix entirely (§2): they take
	// no prefix or suffix.
	if srcKind == arch.KindOutPin && sinkIsPin && dr == 0 && (dc == 0 || dc == 1) {
		s.vals = append(s.vals, [2]arch.TemplateValue{arch.TVFeedback, arch.TVDirect}[dc])
		s.ends = append(s.ends, len(s.vals))
	}

	xDir, yDir := arch.East, arch.North
	if dc < 0 {
		xDir = arch.West
	}
	if dr < 0 {
		yDir = arch.South
	}
	adc, adr := abs(dc), abs(dr)

	// Hex + single decomposition per axis. Because singles can never
	// drive hexes (§2), every hex hop must precede every single hop, so
	// the variants interleave at the axis level but keep hexes first
	// globally.
	hx := run{arch.HexTV(xDir), adc / a.HexLen}
	hy := run{arch.HexTV(yDir), adr / a.HexLen}
	sx := run{arch.SingleTV(xDir), adc % a.HexLen}
	sy := run{arch.SingleTV(yDir), adr % a.HexLen}

	// Long-line variants (§6 future work, option-gated) come first for
	// spans where a long clearly wins. A horizontal long is drivable
	// only from an OUT mux at an access tile, and can only continue onto
	// a hex (§2), so the template is LONGH + one hex + an alignment
	// single run; the template router's exit branching finds the access
	// tap for which the tail lands on the sink.
	if opt.UseLongLines {
		p := a.LongAccessPeriod
		if adc >= 3*a.HexLen && src.Col%p == 0 {
			m := sinkTile.Col % p
			if xDir == arch.West {
				m = (p - sinkTile.Col%p) % p
			}
			s.body(run{arch.TVLongH, 1}, run{arch.HexTV(xDir), 1}, hy, run{arch.SingleTV(xDir), m}, sy)
		}
		if adr >= 3*a.HexLen && src.Row%p == 0 {
			m := sinkTile.Row % p
			if yDir == arch.South {
				m = (p - sinkTile.Row%p) % p
			}
			s.body(run{arch.TVLongV, 1}, run{arch.HexTV(yDir), 1}, hx, run{arch.SingleTV(yDir), m}, sx)
		}
	}

	if adc == 0 && adr == 0 {
		// Same tile through the matrix: out and back on singles, in
		// all four orders so edge and corner tiles stay routable.
		for _, d := range outAndBack {
			s.emit([]run{{arch.SingleTV(d), 1}, {arch.SingleTV(d.Opposite()), 1}}, nil)
		}
	} else {
		s.body(hx, hy, sx, sy)
		if adr > 0 && adc > 0 {
			s.body(hy, hx, sy, sx)
			s.body(hx, hy, sy, sx)
		}
		// Single-only variants for short spans give the template
		// router an alternative when the hex patterns are congested.
		if adc+adr > 0 && adc+adr <= 2*a.HexLen {
			s.emit([]run{{arch.SingleTV(xDir), adc}, {arch.SingleTV(yDir), adr}}, nil)
			if adr > 0 && adc > 0 {
				s.emit([]run{{arch.SingleTV(yDir), adr}, {arch.SingleTV(xDir), adc}}, nil)
			}
		}
	}
	s.tmpls = s.tmpls[:0]
	for start, i := 0, 0; i < len(s.ends); start, i = s.ends[i], i+1 {
		s.tmpls = append(s.tmpls, s.vals[start:s.ends[i]:s.ends[i]])
	}
	return s.tmpls
}

// run is n hops of one template value.
type run struct {
	v arch.TemplateValue
	n int
}

// outAndBack are the directions of the zero-displacement single detours,
// in the order they are tried: a route into a CLB pin must arrive on a
// single (hexes drive only singles and hexes; longs only hexes, §2).
var outAndBack = [4]arch.Dir{arch.East, arch.North, arch.West, arch.South}

// emit appends the prefix, the hops of body and then of detour, and the
// suffix as one template, unless that is empty.
func (s *Scratch) emit(body, detour []run) {
	n := len(s.vals)
	for _, part := range [...][]run{{s.prefix}, body, detour, {s.suffix}} {
		for _, r := range part {
			for i := 0; i < r.n; i++ {
				s.vals = append(s.vals, r.v)
			}
		}
	}
	if len(s.vals) > n {
		s.ends = append(s.ends, len(s.vals))
	}
}

// body emits a decomposition, once with each detour when it would reach a
// sink pin (the templates' suffix) on anything but a single.
func (s *Scratch) body(parts ...run) {
	last := arch.TVNone
	for _, p := range parts {
		if p.n > 0 {
			last = p.v
		}
	}
	if s.suffix.n == 0 || s.a.TVSpan(last) == 1 {
		s.emit(parts, nil)
		return
	}
	for _, d := range outAndBack {
		s.emit(parts, []run{{arch.SingleTV(d), 1}, {arch.SingleTV(d.Opposite()), 1}})
	}
}
