package maze

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// refCandidateTemplates is Scratch.Candidates as it was before candidates
// were written into one flat scratch list: each candidate its own slice,
// built from repeated-hop slices and detour slices. It is kept verbatim (but
// for its name) as the reference TestCandidatesMatchReference holds the
// scratch writer to, candidate for candidate and in order.
func refCandidateTemplates(a *arch.Arch, src device.Track, sinkTile device.Coord, sinkWire arch.Wire, opt Options) [][]arch.TemplateValue {
	dr := sinkTile.Row - src.Row
	dc := sinkTile.Col - src.Col

	srcKind := a.ClassOf(src.W).Kind
	sinkKind := a.ClassOf(sinkWire).Kind

	var prefix, suffix []arch.TemplateValue
	if srcKind == arch.KindOutPin {
		prefix = []arch.TemplateValue{arch.TVOutMux}
	}
	sinkIsPin := sinkKind == arch.KindInput || sinkKind == arch.KindCtrl || sinkKind == arch.KindIOBOut || sinkKind == arch.KindBRAMIn
	if sinkIsPin {
		suffix = []arch.TemplateValue{arch.TVClbIn}
	}

	var out [][]arch.TemplateValue
	emit := func(body ...[]arch.TemplateValue) {
		var t []arch.TemplateValue
		t = append(t, prefix...)
		for _, b := range body {
			t = append(t, b...)
		}
		t = append(t, suffix...)
		if len(t) > 0 {
			out = append(out, t)
		}
	}

	// Local resources bypass the routing matrix entirely (§2).
	if srcKind == arch.KindOutPin && sinkIsPin {
		if dr == 0 && dc == 0 {
			out = append(out, []arch.TemplateValue{arch.TVFeedback})
		}
		if dr == 0 && dc == 1 {
			out = append(out, []arch.TemplateValue{arch.TVDirect})
		}
	}

	xDir, yDir := arch.East, arch.North
	if dc < 0 {
		xDir = arch.West
	}
	if dr < 0 {
		yDir = arch.South
	}
	adc, adr := abs(dc), abs(dr)

	hexes := func(d arch.Dir, n int) []arch.TemplateValue {
		return refRepeat(arch.HexTV(d), n)
	}
	singles := func(d arch.Dir, n int) []arch.TemplateValue {
		return refRepeat(arch.SingleTV(d), n)
	}

	// Hex + single decomposition per axis. Because singles can never
	// drive hexes (§2), every hex hop must precede every single hop, so
	// the variants interleave at the axis level but keep hexes first
	// globally.
	hx := hexes(xDir, adc/a.HexLen)
	hy := hexes(yDir, adr/a.HexLen)
	sx := singles(xDir, adc%a.HexLen)
	sy := singles(yDir, adr%a.HexLen)

	// A route into a CLB pin must arrive on a single (hexes drive only
	// singles and hexes; longs only hexes, §2), so bodies ending in a hex
	// get a zero-displacement single detour appended, in all four
	// orientations.
	detours := [][]arch.TemplateValue{
		append(singles(arch.East, 1), singles(arch.West, 1)...),
		append(singles(arch.North, 1), singles(arch.South, 1)...),
		append(singles(arch.West, 1), singles(arch.East, 1)...),
		append(singles(arch.South, 1), singles(arch.North, 1)...),
	}
	emitBody := func(parts ...[]arch.TemplateValue) {
		last := arch.TVNone
		for _, p := range parts {
			if len(p) > 0 {
				last = p[len(p)-1]
			}
		}
		if !sinkIsPin || a.TVSpan(last) == 1 {
			emit(parts...)
			return
		}
		for _, d := range detours {
			emit(append(append([][]arch.TemplateValue{}, parts...), d)...)
		}
	}

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
			emitBody([]arch.TemplateValue{arch.TVLongH},
				hexes(xDir, 1), hy, singles(xDir, m), sy)
		}
		if adr >= 3*a.HexLen && src.Row%p == 0 {
			m := sinkTile.Row % p
			if yDir == arch.South {
				m = (p - sinkTile.Row%p) % p
			}
			emitBody([]arch.TemplateValue{arch.TVLongV},
				hexes(yDir, 1), hx, singles(yDir, m), sx)
		}
	}

	if adc == 0 && adr == 0 {
		// Same tile through the matrix: out and back on singles, in
		// all four orders so edge and corner tiles stay routable.
		emit(singles(arch.East, 1), singles(arch.West, 1))
		emit(singles(arch.North, 1), singles(arch.South, 1))
		emit(singles(arch.West, 1), singles(arch.East, 1))
		emit(singles(arch.South, 1), singles(arch.North, 1))
	} else {
		emitBody(hx, hy, sx, sy)
		if adr > 0 && adc > 0 {
			emitBody(hy, hx, sy, sx)
			emitBody(hx, hy, sy, sx)
		}
		// Single-only variants for short spans give the template
		// router an alternative when the hex patterns are congested.
		if adc+adr > 0 && adc+adr <= 2*a.HexLen {
			emit(singles(xDir, adc), singles(yDir, adr))
			if adr > 0 && adc > 0 {
				emit(singles(yDir, adr), singles(xDir, adc))
			}
		}
	}

	return out
}

func refRepeat(v arch.TemplateValue, n int) []arch.TemplateValue {
	if n <= 0 {
		return nil
	}
	out := make([]arch.TemplateValue, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestCandidatesMatchReference: the scratch writer emits exactly the
// reference's candidates, in its order, for every source and sink kind the
// router asks about, with and without long lines, over a spread of
// displacements and access alignments, on both architectures — and a
// Scratch reused across all of them writes the same lists as a fresh one.
func TestCandidatesMatchReference(t *testing.T) {
	var reused Scratch
	// Around 0, 1, 2 and 3 hex lengths either way: longs need three.
	spans := []int{-24, -19, -18, -17, -13, -12, -7, -6, -5, -3, -2, -1, 0, 1, 2, 3, 5, 6, 7, 12, 13, 17, 18, 19, 24}
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		for _, srcW := range []arch.Wire{arch.S1YQ, arch.Out(3)} {
			for _, sinkW := range []arch.Wire{arch.S0F1, arch.S0F3, arch.Out(7)} {
				for _, longs := range []bool{false, true} {
					for _, sc := range []int{0, 12, 13} {
						for _, dr := range spans {
							for _, dc := range spans {
								src := device.Track{Row: 24, Col: sc, W: srcW}
								sink := device.Coord{Row: 24 + dr, Col: sc + dc}
								opt := Options{UseLongLines: longs}
								want := refCandidateTemplates(a, src, sink, sinkW, opt)
								var fresh Scratch
								got := fresh.Candidates(a, src, sink, sinkW, opt)
								views := reused.Candidates(a, src, sink, sinkW, opt)
								var wantEnds []int
								for _, w := range want {
									wantEnds = append(wantEnds, len(w)+len(slices.Concat(want[:len(wantEnds)]...)))
								}
								if !slices.EqualFunc(got, want, slices.Equal) || !slices.EqualFunc(views, want, slices.Equal) ||
									!slices.Equal(reused.ends, wantEnds) || !slices.Equal(reused.vals, slices.Concat(want...)) {
									t.Fatalf("%s %v -> %v (%s, longs %v): got %v, reused %v (%v %v), want %v",
										a.Name, src, sink, a.WireName(sinkW), longs, got, views, reused.vals, reused.ends, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
