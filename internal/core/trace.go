package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/device"
)

// Net is the result of a trace: the source pin, the on-PIPs of the net in
// breadth-first order from the source, and the sink pins found. Debugging
// tools such as BoardScope consume this (§3.5).
type Net struct {
	Source Pin
	PIPs   []device.PIP
	Sinks  []Pin
}

// WireCount returns the number of distinct routing tracks the net occupies
// (excluding the source and sink pins themselves) — the resource-usage
// metric of experiment B3.
func (n *Net) WireCount(dev *device.Device) int {
	seen := map[device.Key]bool{}
	count := 0
	for _, p := range n.PIPs {
		t, err := dev.Canon(p.Row, p.Col, p.To)
		if err != nil || seen[t.Key()] {
			continue
		}
		seen[t.Key()] = true
		k := dev.A.ClassOf(t.W).Kind
		if k != arch.KindInput && k != arch.KindCtrl && k != arch.KindIOBOut && k != arch.KindBRAMIn && k != arch.KindBRAMClk {
			count++
		}
	}
	return count
}

// Trace is the paper's trace(EndPoint source): "A JRoute call traces a
// source to all of its sinks. The entire net is returned." (§3.5)
func (r *Router) Trace(source EndPoint) (*Net, error) {
	src, err := sourcePin(source)
	if err != nil {
		return nil, err
	}
	srcTrack, err := r.Dev.Canon(src.Row, src.Col, src.W)
	if err != nil {
		return nil, err
	}
	net := &Net{Source: src}
	queue := []device.Track{srcTrack}
	fanout := r.fanoutBuf[:0]
	defer func() { r.fanoutBuf = fanout }()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fanout = r.Dev.AppendFanoutOf(fanout[:0], cur)
		for _, p := range fanout {
			t, err := r.Dev.Canon(p.Row, p.Col, p.To)
			if err != nil {
				return nil, err
			}
			// A track has one driver, so the walk is over a tree and meets
			// no track twice — unless it started on a routing loop, and
			// then the one track it can meet again is the start: every
			// track reached is driven by the one before it, a loop track's
			// driver is on the loop, so a loop reached is a loop begun on.
			if t == srcTrack {
				continue
			}
			net.PIPs = append(net.PIPs, p)
			switch r.Dev.A.ClassOf(t.W).Kind {
			case arch.KindInput, arch.KindCtrl, arch.KindIOBOut, arch.KindBRAMIn, arch.KindBRAMClk:
				net.Sinks = append(net.Sinks, Pin{Row: p.Row, Col: p.Col, W: p.To})
			default:
				queue = append(queue, t)
			}
		}
	}
	return net, nil
}

// ReverseTrace is the paper's reversetrace(EndPoint sink): "A sink is
// traced back to its source. Only the net that leads to the sink is
// returned." (§3.5)
func (r *Router) ReverseTrace(sink EndPoint) (*Net, error) {
	pins := sink.Pins()
	if len(pins) != 1 {
		return nil, fmt.Errorf("core: reverse trace needs exactly one sink pin, got %d", len(pins))
	}
	sp := pins[0]
	cur, err := r.Dev.Canon(sp.Row, sp.Col, sp.W)
	if err != nil {
		return nil, err
	}
	net := &Net{Sinks: []Pin{sp}}
	var rev []device.PIP
	for {
		p, ok := r.Dev.DriverOf(cur)
		if !ok {
			break
		}
		rev = append(rev, p)
		cur, err = r.Dev.Canon(p.Row, p.Col, p.From)
		if err != nil {
			return nil, err
		}
	}
	if len(rev) == 0 {
		return nil, fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(sp.W), sp.Row, sp.Col)
	}
	net.PIPs = make([]device.PIP, len(rev))
	for i := range rev {
		net.PIPs[i] = rev[len(rev)-1-i]
	}
	first := net.PIPs[0]
	// The root track's local name at the first PIP's tile is the source.
	net.Source = Pin{Row: first.Row, Col: first.Col, W: first.From}
	if root, err := r.Dev.Canon(first.Row, first.Col, first.From); err == nil {
		net.Source = Pin{Row: root.Row, Col: root.Col, W: root.W}
	}
	return net, nil
}
