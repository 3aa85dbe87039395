package maze

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/device"
)

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AStar searches from any of the source tracks to the sink track, expanding
// architecture-legal PIPs onto undriven wires only. Multiple sources make
// net reuse free: RouteFanout seeds the search with every track of the
// already-routed net at cost zero, so "the router attempts to reuse the
// previous paths as much as possible" (§3.1).
func AStar(dev *device.Device, sources []device.Track, sink device.Track, opt Options) (*Route, error) {
	return search(dev, sources, sink, opt, true)
}

// Lee is the uniform-cost breadth-first maze router (Lee's algorithm, the
// classical reference the paper cites); it expands strictly by PIP count
// with no distance guidance. Kept as the baseline against which the
// template-first strategy's search-space reduction is measured (B2).
func Lee(dev *device.Device, sources []device.Track, sink device.Track, opt Options) (*Route, error) {
	return search(dev, sources, sink, opt, false)
}

// isNetEndpointKind reports whether a resource kind is a net endpoint (CLB
// or IOB or BRAM input side) that must never be routed *through*.
func isNetEndpointKind(k arch.Kind) bool {
	switch k {
	case arch.KindInput, arch.KindCtrl, arch.KindIOBOut, arch.KindBRAMIn, arch.KindBRAMClk:
		return true
	default:
		return false
	}
}

func search(dev *device.Device, sources []device.Track, sink device.Track, opt Options, astar bool) (*Route, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("maze: no sources: %w", ErrUnroutable)
	}
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	sinkIdx := dev.TrackIndex(sink)
	if dev.Driven(sinkIdx) {
		return nil, fmt.Errorf("maze: sink %s at (%d,%d) already in use: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}

	// h lower-bounds the remaining cost: covering distance d with hexes
	// (the cheapest per-tile resource) plus a short single tail; with
	// long lines enabled any remaining distance could in principle be a
	// long hop plus a hex. The search is weighted (f = g + 2h), trading
	// optimality for focus — the paper's routers are explicitly greedy.
	hexC := opt.kindCost(arch.KindHex)
	singleC := opt.kindCost(arch.KindSingle)
	longC := opt.kindCost(arch.KindLongH)
	h := func(t device.Track) float64 {
		if !astar {
			return 0
		}
		d := dev.MinTapDistance(t, sinkTile)
		hexes := d / dev.A.HexLen
		tail := d % dev.A.HexLen
		if tail*singleC > 2*hexC {
			tail = 2 * hexC / singleC
		}
		est := hexes*hexC + tail*singleC
		if opt.UseLongLines && est > longC+hexC {
			est = longC + hexC
		}
		return float64(2 * est)
	}
	cost := func(k arch.Kind) int {
		if !astar {
			return 1
		}
		return opt.kindCost(k)
	}

	ar := getArena(dev.NumTracks())
	defer putArena(ar)

	for _, s := range sources {
		if s == sink {
			return &Route{}, nil // already connected
		}
		si := dev.TrackIndex(s)
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, hop{}, -1)
		ar.push(heapItem{ti: si, gi: si, g: 0, f: h(s)})
	}

	explored := 0
	maxNodes := opt.maxNodes()
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.g[it.ti] {
			continue // stale entry
		}
		explored++
		if explored > maxNodes {
			return nil, fmt.Errorf("maze: search exceeded %d states: %w", maxNodes, ErrUnroutable)
		}
		goal := false
		edges, at := dev.EdgesAt(it.gi)
		for _, e := range edges {
			target := e.Target(at)
			ti := dev.TrackIndex(target)
			if ti != sinkIdx {
				if !opt.allowKind(e.Kind) {
					continue
				}
				// Do not route through CLB pins: they are net
				// endpoints, not thoroughfares.
				if isNetEndpointKind(e.Kind) {
					continue
				}
			}
			if opt.avoids(dev, at.Row+int(e.PRow), at.Col+int(e.PCol), target) {
				continue
			}
			if dev.Driven(ti) {
				continue
			}
			ng := it.g + float64(cost(e.Kind))
			if ar.seen(ti) && ar.g[ti] <= ng {
				continue
			}
			ar.visit(ti, ng, hopOf(e, at), it.ti)
			if ti == sinkIdx {
				// Goal: stop (greedy routing: first arrival wins).
				goal = true
				break
			}
			ar.push(heapItem{ti: ti, gi: ti, g: ng, f: ng + h(target)})
		}
		if goal {
			return &Route{PIPs: ar.reconstruct(sinkIdx), Cost: int(ar.g[sinkIdx]), Explored: explored}, nil
		}
	}
	return nil, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}
