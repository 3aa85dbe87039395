package core

import (
	"cmp"
	"fmt"
	"slices"

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
		if !dev.A.ClassOf(t.W).Kind.IsSink() {
			count++
		}
	}
	return count
}

// Trace is the paper's trace(EndPoint source): "A JRoute call traces a
// source to all of its sinks. The entire net is returned." (§3.5)
func (r *Router) Trace(source EndPoint) (*Net, error) {
	src, err := r.walkFrom(source)
	if err != nil {
		return nil, err
	}
	return &Net{Source: src, PIPs: owned(r.walkPIPs), Sinks: owned(r.walkSinks)}, nil
}

// walkFrom resolves source to its one pin and walks the net it drives.
func (r *Router) walkFrom(source EndPoint) (Pin, error) {
	src, err := sourcePin(source)
	if err != nil {
		return src, err
	}
	t, err := r.Dev.Canon(src.Row, src.Col, src.W)
	if err != nil {
		return src, err
	}
	return src, r.walk(t)
}

// walk is the one forward walk over a net, breadth first from its source
// track src, into router scratch: the on-PIPs in the order reached
// (walkPIPs), the sink pins (walkSinks), and src plus every other track
// reached that drives on (walkTracks). A PIP whose target has no canonical
// track is skipped; the first such error is returned after the walk.
func (r *Router) walk(src device.Track) (err error) {
	queue := append(r.walkTracks[:0], src)
	pips, sinks, fanout := r.walkPIPs[:0], r.walkSinks[:0], r.fanoutBuf
	for head := 0; head < len(queue); head++ {
		fanout = r.Dev.AppendFanoutOf(fanout[:0], queue[head])
		for _, p := range fanout {
			t, terr := r.Dev.Canon(p.Row, p.Col, p.To)
			if terr != nil {
				err = cmp.Or(err, terr)
				continue
			}
			// A track has one driver, so the walk is over a tree and meets
			// no track twice — unless it started on a routing loop, and
			// then the one track it can meet again is the start: every
			// track reached is driven by the one before it, a loop track's
			// driver is on the loop, so a loop reached is a loop begun on.
			if t == src {
				continue
			}
			pips = append(pips, p)
			if r.Dev.A.ClassOf(t.W).Kind.IsSink() {
				sinks = append(sinks, Pin{Row: p.Row, Col: p.Col, W: p.To})
			} else {
				queue = append(queue, t)
			}
		}
	}
	r.walkTracks, r.walkPIPs, r.walkSinks, r.fanoutBuf = queue, pips, sinks, fanout
	return err
}

// owned returns an exact-size copy of scratch s for a caller to keep.
func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// ReverseTrace is the paper's reversetrace(EndPoint sink): "A sink is
// traced back to its source. Only the net that leads to the sink is
// returned." (§3.5) A sink whose driver chain closes on itself has no
// source, and is an error.
func (r *Router) ReverseTrace(sink EndPoint) (*Net, error) {
	sp, n := solePin(sink)
	if n != 1 {
		return nil, fmt.Errorf("core: reverse trace needs exactly one sink pin, got %d", n)
	}
	cur, err := r.Dev.Canon(sp.Row, sp.Col, sp.W)
	if err != nil {
		return nil, err
	}
	r.walkPIPs = r.walkPIPs[:0]
	root, loop := r.Dev.RootOf(cur, &r.walkPIPs)
	switch {
	case loop:
		return nil, fmt.Errorf("core: %s at (%d,%d) is on a routing loop",
			r.Dev.A.WireName(sp.W), sp.Row, sp.Col)
	case len(r.walkPIPs) == 0:
		return nil, fmt.Errorf("core: %s at (%d,%d) is not routed",
			r.Dev.A.WireName(sp.W), sp.Row, sp.Col)
	}
	net := &Net{Source: Pin{Row: root.Row, Col: root.Col, W: root.W}, PIPs: owned(r.walkPIPs), Sinks: []Pin{sp}}
	slices.Reverse(net.PIPs)
	return net, nil
}

// ForeignNet reports whether the net ep's pin is on holds a record of an
// owner other than o: the driver chain is walked back to the net's root,
// as ReverseUnroute does, and the owners of the records filed at the root
// are read. It costs the chain plus the records at that key, allocates
// nothing and counts nothing in Stats. A pin on no recorded net, or an
// endpoint that does not resolve to one pin, is no other owner's.
func (r *Router) ForeignNet(ep EndPoint, o uint8) bool {
	sp, n := solePin(ep)
	if n != 1 {
		return false
	}
	t, ok := r.Dev.CanonOK(sp.Row, sp.Col, sp.W)
	if !ok {
		return false
	}
	root, _ := r.Dev.RootOf(t, nil) // t itself, on a routing loop
	for c := r.conns.bucket(r.Dev.TrackIndex(root)); c != nil; c = c.srcNext {
		if c.owner != o {
			return true
		}
	}
	return false
}
