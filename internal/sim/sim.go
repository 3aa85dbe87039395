// Package sim functionally simulates a configured device: it evaluates LUTs
// over the routed nets, propagates combinational values to a fixpoint, and
// latches flip-flops on each clock step.
//
// The paper ran on real Virtex silicon; this simulator is the substitute
// that lets the examples (the §4 counter, the dataflow pipeline, the §3.3
// constant-multiplier swap) demonstrate end-to-end that JRoute's routes
// carry correct signals — and it is what a BoardScope-style debugger (§3.5)
// probes.
//
// Model:
//   - A CLB's X/Y outputs are its F/G LUT outputs; XQ/YQ are the registered
//     versions, updated on Step only if the slice's clock pin is driven (by
//     a routed global clock).
//   - A LUT input pin reads the value of the net driving it (the root of
//     its driver chain); undriven inputs read false.
//   - Output pins of unconfigured CLBs can be forced to act as virtual
//     input pads.
//   - Combinational loops (not broken by a flip-flop) are detected as a
//     failure to reach a fixpoint and reported as an error.
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/device"
)

type cellKey struct {
	Row, Col, N int
}

// bramState is one block-RAM site during simulation.
type bramState struct {
	mem  [arch.BRAMWords]byte
	dout byte // registered read port
}

// Simulator evaluates one device.
type Simulator struct {
	dev    *device.Device
	forced map[device.Key]bool // virtual pads: out-pin tracks with forced values
	ff     map[cellKey]bool    // flip-flop state
	comb   map[cellKey]bool    // current F/G LUT outputs
	clbs   []device.Coord      // active CLBs, cached
	brams  map[device.Coord]*bramState
	cycles int
}

// New creates a simulator over the device's current configuration.
// Reconfiguring the device afterwards requires a Refresh.
func New(dev *device.Device) *Simulator {
	s := &Simulator{
		dev:    dev,
		forced: make(map[device.Key]bool),
		ff:     make(map[cellKey]bool),
		comb:   make(map[cellKey]bool),
	}
	s.Refresh()
	return s
}

// Refresh re-reads the device configuration (active CLBs and flip-flop
// initial values) and resets simulation state. Forced pads are kept.
func (s *Simulator) Refresh() {
	s.clbs = s.dev.ActiveCLBs()
	s.ff = make(map[cellKey]bool)
	s.comb = make(map[cellKey]bool)
	s.brams = make(map[device.Coord]*bramState)
	s.cycles = 0
	for _, c := range s.clbs {
		for n := 0; n < device.NumFFs; n++ {
			if s.dev.FFInit(c.Row, c.Col, n) {
				s.ff[cellKey{c.Row, c.Col, n}] = true
			}
		}
	}
	for _, c := range s.dev.ActiveBRAMs() {
		init, _ := s.dev.GetBRAMInit(c.Row, c.Col)
		s.brams[c] = &bramState{mem: init}
	}
}

// Cycles returns how many clock steps have been simulated since the last
// Refresh.
func (s *Simulator) Cycles() int { return s.cycles }

// Force drives a signal source with a constant: either an input pad
// (IOBIn, the §6 IOB extension) or an output pin of an *unconfigured* CLB
// acting as a virtual pad.
func (s *Simulator) Force(row, col int, w arch.Wire, v bool) error {
	switch s.dev.A.ClassOf(w).Kind {
	case arch.KindIOBIn:
		// pads are always forceable
	case arch.KindOutPin:
		if s.dev.CLBActive(row, col) {
			return fmt.Errorf("sim: CLB (%d,%d) has configured logic; cannot force its outputs", row, col)
		}
	default:
		return fmt.Errorf("sim: can only force input pads and CLB output pins, not %s", s.dev.A.WireName(w))
	}
	t, err := s.dev.Canon(row, col, w)
	if err != nil {
		return err
	}
	s.forced[t.Key()] = v
	return nil
}

// Release removes a forced value.
func (s *Simulator) Release(row, col int, w arch.Wire) error {
	t, err := s.dev.Canon(row, col, w)
	if err != nil {
		return err
	}
	delete(s.forced, t.Key())
	return nil
}

// lutIndexForFF maps a flip-flop index to the LUT whose output it registers
// (F -> XQ, G -> YQ in each slice); here the indices coincide.
func lutIndexForFF(ff int) int { return ff }

// outPinValue returns the current value of an output-pin track.
func (s *Simulator) outPinValue(t device.Track) bool {
	p := s.dev.A.ClassOf(t.W).Index
	// Pin order: S0X, S0Y, S0XQ, S0YQ, S1X, S1Y, S1XQ, S1YQ.
	slice := p / 4
	within := p % 4
	switch within {
	case 0: // X = F LUT
		if _, used := s.dev.GetLUT(t.Row, t.Col, slice*2+0); used {
			return s.comb[cellKey{t.Row, t.Col, slice*2 + 0}]
		}
	case 1: // Y = G LUT
		if _, used := s.dev.GetLUT(t.Row, t.Col, slice*2+1); used {
			return s.comb[cellKey{t.Row, t.Col, slice*2 + 1}]
		}
	case 2: // XQ = registered F LUT
		if _, used := s.dev.GetLUT(t.Row, t.Col, slice*2+0); used {
			return s.ff[cellKey{t.Row, t.Col, slice*2 + 0}]
		}
	case 3: // YQ = registered G LUT
		if _, used := s.dev.GetLUT(t.Row, t.Col, slice*2+1); used {
			return s.ff[cellKey{t.Row, t.Col, slice*2 + 1}]
		}
	}
	// Unconfigured pin: a virtual pad if forced, floating low otherwise.
	if v, ok := s.forced[t.Key()]; ok {
		return v
	}
	return false
}

// rootValue resolves the value carried by a track by walking its driver
// chain to the source.
func (s *Simulator) rootValue(t device.Track) bool {
	t, loop := s.dev.RootOf(t, nil)
	if loop {
		return false // a routing loop has no source to carry
	}
	switch s.dev.A.ClassOf(t.W).Kind {
	case arch.KindOutPin:
		return s.outPinValue(t)
	case arch.KindIOBIn:
		return s.forced[t.Key()]
	case arch.KindBRAMOut:
		if b, ok := s.brams[device.Coord{Row: t.Row, Col: t.Col}]; ok {
			j := s.dev.A.ClassOf(t.W).Index
			return b.dout>>j&1 != 0
		}
		return false
	case arch.KindGClk:
		// Between steps the clock is low; edges are implicit in Step.
		return false
	default:
		if v, ok := s.forced[t.Key()]; ok {
			return v
		}
		return false
	}
}

// lutInputValue reads LUT n's input idx (0..3) at a CLB.
func (s *Simulator) lutInputValue(row, col, n, idx int) bool {
	w := arch.Input(n*4 + idx)
	t, ok := s.dev.CanonOK(row, col, w)
	if !ok {
		return false
	}
	return s.rootValue(t)
}

func (s *Simulator) evalLUT(row, col, n int) bool {
	truth, used := s.dev.GetLUT(row, col, n)
	if !used {
		return false
	}
	idx := 0
	for i := 0; i < 4; i++ {
		if s.lutInputValue(row, col, n, i) {
			idx |= 1 << i
		}
	}
	return truth&(1<<idx) != 0
}

// Eval propagates combinational values to a fixpoint. It fails if the
// configuration contains a combinational loop.
func (s *Simulator) Eval() error {
	maxIters := 4*len(s.clbs) + 2
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for _, c := range s.clbs {
			for n := 0; n < device.NumLUTs; n++ {
				if _, used := s.dev.GetLUT(c.Row, c.Col, n); !used {
					continue
				}
				v := s.evalLUT(c.Row, c.Col, n)
				k := cellKey{c.Row, c.Col, n}
				if s.comb[k] != v {
					s.comb[k] = v
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational loop: no fixpoint after %d sweeps", maxIters)
}

// Step advances one clock cycle: evaluate combinational logic, latch every
// flip-flop whose slice clock is driven, then re-evaluate so that Value
// reflects the post-edge state.
func (s *Simulator) Step() error {
	if err := s.Eval(); err != nil {
		return err
	}
	next := make(map[cellKey]bool, len(s.ff))
	for k, v := range s.ff {
		next[k] = v
	}
	for _, c := range s.clbs {
		for ffn := 0; ffn < device.NumFFs; ffn++ {
			slice := ffn / 2
			clkPin := arch.S0CLK
			if slice == 1 {
				clkPin = arch.S1CLK
			}
			if !s.dev.IsOn(c.Row, c.Col, clkPin) {
				continue // unclocked flip-flops hold
			}
			lut := lutIndexForFF(ffn)
			if _, used := s.dev.GetLUT(c.Row, c.Col, lut); !used {
				continue
			}
			next[cellKey{c.Row, c.Col, ffn}] = s.comb[cellKey{c.Row, c.Col, lut}]
		}
	}
	// Block RAMs clock synchronously with the CLB flip-flops when their
	// clock pin is driven: write-enable commits din to mem[addr], and the
	// registered read port loads the (post-write) word at addr.
	for c, b := range s.brams {
		clk, ok := s.dev.CanonOK(c.Row, c.Col, arch.BRAMClk())
		if !ok {
			continue
		}
		if _, driven := s.dev.DriverOf(clk); !driven {
			continue
		}
		addr := 0
		for i := 0; i < arch.NumBRAMAddr; i++ {
			if s.pinValue(c, arch.BRAMAddr(i)) {
				addr |= 1 << i
			}
		}
		if s.pinValue(c, arch.BRAMWE()) {
			var din byte
			for i := 0; i < arch.NumBRAMDin; i++ {
				if s.pinValue(c, arch.BRAMDin(i)) {
					din |= 1 << i
				}
			}
			b.mem[addr] = din
		}
		b.dout = b.mem[addr]
	}
	s.ff = next
	s.cycles++
	return s.Eval()
}

// pinValue reads the routed value on a named pin of a tile.
func (s *Simulator) pinValue(c device.Coord, w arch.Wire) bool {
	t, ok := s.dev.CanonOK(c.Row, c.Col, w)
	if !ok {
		return false
	}
	return s.rootValue(t)
}

// BRAMWord reads a simulated block-RAM word directly (debug aid).
func (s *Simulator) BRAMWord(row, col, addr int) (byte, bool) {
	b, ok := s.brams[device.Coord{Row: row, Col: col}]
	if !ok || addr < 0 || addr >= arch.BRAMWords {
		return 0, false
	}
	return b.mem[addr], true
}

// Run advances n clock cycles.
func (s *Simulator) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return fmt.Errorf("sim: cycle %d: %w", s.cycles, err)
		}
	}
	return nil
}

// Value reads the current logic value on any wire reference.
func (s *Simulator) Value(row, col int, w arch.Wire) (bool, error) {
	t, err := s.dev.Canon(row, col, w)
	if err != nil {
		return false, err
	}
	if s.dev.A.ClassOf(t.W).Kind == arch.KindOutPin {
		return s.outPinValue(t), nil
	}
	return s.rootValue(t), nil
}

// FF reads a flip-flop's state directly.
func (s *Simulator) FF(row, col, n int) bool { return s.ff[cellKey{row, col, n}] }

// SetFF forces a flip-flop's state (debug aid, mirroring BoardScope's state
// injection).
func (s *Simulator) SetFF(row, col, n int, v bool) { s.ff[cellKey{row, col, n}] = v }

// Probe names a wire to read.
type Probe struct {
	Row, Col int
	W        arch.Wire
}

// ReadWord interprets an ordered list of probes as a little-endian word —
// convenient for checking counters and datapaths (probe 0 is bit 0).
func (s *Simulator) ReadWord(pins []Probe) (uint64, error) {
	var v uint64
	for i, p := range pins {
		b, err := s.Value(p.Row, p.Col, p.W)
		if err != nil {
			return 0, err
		}
		if b {
			v |= 1 << i
		}
	}
	return v, nil
}
