// Package timing provides a simple per-resource delay model for routed
// nets. JRoute's algorithms are deliberately *not* timing driven ("Because
// it is not timing driven, this algorithm is suitable only for non-critical
// nets", §3.1), so this model is used purely for measurement: the
// long-line ablation (experiment B8) reports estimated net delays with and
// without long lines, and cores can report their critical sink.
//
// Delays are in nanoseconds. The per-hop figures are arch's, by template
// value (arch.TemplateValue.Delay, in tenths of a nanosecond), so the
// delay-driven search (maze.Options.TimingDriven) costs each hop what this
// model reports for it.
package timing

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

// Model is the delay model: each hop of a driver chain costs its template
// value's arch.TemplateValue.Delay, the table the delay-driven search reads
// too.
type Model struct{}

// Default returns the standard model.
func Default() Model { return Model{} }

// PIPDelay returns the delay contributed by one PIP, classified by the
// architecture, in nanoseconds.
func (m Model) PIPDelay(a *arch.Arch, p device.PIP) float64 {
	return float64(a.DriveTemplate(p.From, p.To).Delay()) / 10
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
