// Package timing provides a simple per-resource delay model for routed
// nets. JRoute's algorithms are deliberately *not* timing driven ("Because
// it is not timing driven, this algorithm is suitable only for non-critical
// nets", §3.1), so this model is used purely for measurement: the
// long-line ablation (experiment B8) reports estimated net delays with and
// without long lines, and cores can report their critical sink.
//
// Delays are in nanoseconds, loosely shaped after Virtex-era data-book
// figures: what matters for the experiments is the ordering (pins cheap,
// singles cheap but numerous, hexes amortized over six tiles, longs flat
// across the chip).
package timing

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

// Model holds the per-hop delays by driven resource kind.
type Model struct {
	OutMux   float64
	Single   float64
	Hex      float64
	Long     float64
	Input    float64
	Feedback float64
	Direct   float64
	GClk     float64
}

// Default returns the standard model.
func Default() Model {
	return Model{
		OutMux:   0.4,
		Single:   1.2,
		Hex:      2.4, // spans 6 tiles: 0.4/tile vs the single's 1.2
		Long:     3.2, // buffered, flat across the chip
		Input:    0.6,
		Feedback: 0.3,
		Direct:   0.3,
		GClk:     0.1,
	}
}

// PIPDelay returns the delay contributed by one PIP, classified by the
// architecture.
func (m Model) PIPDelay(a *arch.Arch, p device.PIP) float64 {
	switch a.DriveTemplate(p.From, p.To) {
	case arch.TVOutMux:
		return m.OutMux
	case arch.TVNorth1, arch.TVEast1, arch.TVSouth1, arch.TVWest1:
		return m.Single
	case arch.TVNorth6, arch.TVEast6, arch.TVSouth6, arch.TVWest6:
		return m.Hex
	case arch.TVLongH, arch.TVLongV:
		return m.Long
	case arch.TVFeedback:
		return m.Feedback
	case arch.TVDirect:
		return m.Direct
	case arch.TVGClk:
		return m.GClk
	case arch.TVClbIn:
		return m.Input
	default:
		return m.Single
	}
}

// SinkDelay returns the source-to-sink delay of one routed sink by walking
// its driver chain.
func (m Model) SinkDelay(dev *device.Device, sink core.Pin) (float64, error) {
	cur, err := dev.Canon(sink.Row, sink.Col, sink.W)
	if err != nil {
		return 0, err
	}
	var chain []device.PIP
	switch _, loop := dev.RootOf(cur, &chain); {
	case loop:
		return 0, fmt.Errorf("timing: %s at (%d,%d) is on a routing loop",
			dev.A.WireName(sink.W), sink.Row, sink.Col)
	case len(chain) == 0:
		return 0, fmt.Errorf("timing: %s at (%d,%d) is not routed",
			dev.A.WireName(sink.W), sink.Row, sink.Col)
	}
	total := 0.0
	for _, p := range chain {
		total += m.PIPDelay(dev.A, p)
	}
	return total, nil
}

// NetDelays returns the per-sink delays of a traced net.
func (m Model) NetDelays(dev *device.Device, net *core.Net) (map[core.Pin]float64, error) {
	out := make(map[core.Pin]float64, len(net.Sinks))
	for _, s := range net.Sinks {
		d, err := m.SinkDelay(dev, s)
		if err != nil {
			return nil, err
		}
		out[s] = d
	}
	return out, nil
}

// Skew returns the spread between the slowest and fastest sink of a net —
// the figure the dedicated global nets minimize ("distribute high-fanout
// signals with minimal skew", §2) and that §6 lists as future work for
// general routing.
func (m Model) Skew(dev *device.Device, net *core.Net) (float64, error) {
	if len(net.Sinks) == 0 {
		return 0, fmt.Errorf("timing: net has no sinks")
	}
	delays, err := m.NetDelays(dev, net)
	if err != nil {
		return 0, err
	}
	lo, hi := -1.0, -1.0
	for _, s := range net.Sinks {
		d := delays[s]
		if lo < 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return hi - lo, nil
}

// Critical returns the slowest sink of a net and its delay.
func (m Model) Critical(dev *device.Device, net *core.Net) (core.Pin, float64, error) {
	if len(net.Sinks) == 0 {
		return core.Pin{}, 0, fmt.Errorf("timing: net has no sinks")
	}
	delays, err := m.NetDelays(dev, net)
	if err != nil {
		return core.Pin{}, 0, err
	}
	var worst core.Pin
	worstD := -1.0
	for _, s := range net.Sinks {
		if d := delays[s]; d > worstD {
			worst, worstD = s, d
		}
	}
	return worst, worstD, nil
}
