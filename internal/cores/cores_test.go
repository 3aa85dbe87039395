package cores

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

func newRig(t testing.TB) *core.Router {
	t.Helper()
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(d)
}

// padDrive routes pad CLB outputs to a core's input ports and returns the
// forcing function. The pad CLB must stay unconfigured.
func padDrive(t *testing.T, r *core.Router, s *sim.Simulator, padRow, padCol int, ports []*core.Port) func(v uint64) {
	t.Helper()
	for i, p := range ports {
		if err := r.RouteNet(core.NewPin(padRow, padCol, arch.OutPin(i)), p); err != nil {
			t.Fatalf("pad bit %d: %v", i, err)
		}
	}
	return padForce(t, s, padRow, padCol, len(ports))
}

// padForce is padDrive's forcing function alone, for pad nets already
// routed: it drives the pad CLB's first n outputs from the bits of v.
func padForce(t *testing.T, s *sim.Simulator, padRow, padCol, n int) func(v uint64) {
	return func(v uint64) {
		for i := 0; i < n; i++ {
			if err := s.Force(padRow, padCol, arch.OutPin(i), v>>uint(i)&1 != 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// readPorts reads a group of out ports as a little-endian word.
func readPorts(t *testing.T, s *sim.Simulator, ports []*core.Port) uint64 {
	t.Helper()
	var probes []sim.Probe
	for _, p := range ports {
		pin := p.Pins()[0]
		probes = append(probes, sim.Probe{Row: pin.Row, Col: pin.Col, W: pin.W})
	}
	v, err := s.ReadWord(probes)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestConstAdderCombinational(t *testing.T) {
	r := newRig(t)
	const bits, k = 4, 5
	add, err := NewConstAdder("add", bits, k, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := add.Place(4, 10); err != nil {
		t.Fatal(err)
	}
	if err := add.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	force := padDrive(t, r, s, 4, 4, add.Ports("x"))
	for _, x := range []uint64{0, 1, 3, 7, 10, 15} {
		force(x)
		if err := s.Eval(); err != nil {
			t.Fatal(err)
		}
		got := readPorts(t, s, add.Ports("sum"))
		want := (x + k) & 0xF
		if got != want {
			t.Errorf("x=%d: sum=%d, want %d", x, got, want)
		}
		// Carry out of the top bit.
		coutPin := add.Ports("cout")[0].Pins()[0]
		cout, _ := s.Value(coutPin.Row, coutPin.Col, coutPin.W)
		if cout != ((x+k)>>bits&1 != 0) {
			t.Errorf("x=%d: cout=%v", x, cout)
		}
	}
}

func TestConstAdderSetConstant(t *testing.T) {
	r := newRig(t)
	add, err := NewConstAdder("add", 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	add.Place(4, 10)
	if err := add.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	force := padDrive(t, r, s, 4, 4, add.Ports("x"))
	pips := r.Dev.OnPIPCount()
	if err := add.SetConstant(r, 9); err != nil {
		t.Fatal(err)
	}
	if r.Dev.OnPIPCount() != pips {
		t.Error("SetConstant changed routing")
	}
	force(3)
	if err := s.Eval(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, add.Ports("sum")); got != 12 {
		t.Errorf("3+9 = %d", got)
	}
}

// TestCounter reproduces the §4 composition: constant adder + registered
// feedback counts.
func TestCounter(t *testing.T) {
	for _, step := range []uint64{1, 3} {
		r := newRig(t)
		ctr, err := NewCounter("ctr", 4, step)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctr.Place(3, 8); err != nil {
			t.Fatal(err)
		}
		if err := ctr.Implement(r); err != nil {
			t.Fatal(err)
		}
		s := sim.New(r.Dev)
		for cyc := 0; cyc < 10; cyc++ {
			got := readPorts(t, s, ctr.Ports("q"))
			want := uint64(cyc) * step & 0xF
			if got != want {
				t.Fatalf("step=%d cycle %d: q=%d, want %d", step, cyc, got, want)
			}
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCounterSetStep(t *testing.T) {
	r := newRig(t)
	ctr, err := NewCounter("ctr", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctr.Place(3, 8)
	if err := ctr.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, ctr.Ports("q")); got != 3 {
		t.Fatalf("q=%d after 3 steps", got)
	}
	if err := ctr.SetStep(r, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, ctr.Ports("q")); got != 11 {
		t.Errorf("q=%d after retune, want 11", got)
	}
}

func TestConstMul(t *testing.T) {
	r := newRig(t)
	mul, err := NewConstMul("mul", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	mul.Place(4, 10)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	force := padDrive(t, r, s, 4, 4, mul.Ports("x"))
	for _, x := range []uint64{0, 1, 7, 13, 15} {
		force(x)
		if err := s.Eval(); err != nil {
			t.Fatal(err)
		}
		if got := readPorts(t, s, mul.Ports("p")); got != 5*x {
			t.Errorf("5*%d = %d", x, got)
		}
	}
	// Run-time constant swap: pure LUT rewrite.
	pips := r.Dev.OnPIPCount()
	if err := mul.SetConstant(r, 11); err != nil {
		t.Fatal(err)
	}
	if r.Dev.OnPIPCount() != pips {
		t.Error("SetConstant changed routing")
	}
	force(13)
	if err := s.Eval(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, mul.Ports("p")); got != 11*13 {
		t.Errorf("11*13 = %d", got)
	}
	if err := mul.SetConstant(r, 99); err == nil {
		t.Error("oversized constant accepted")
	}
}

func TestRegisterDelaysByOneCycle(t *testing.T) {
	r := newRig(t)
	reg, err := NewRegister("reg", 4)
	if err != nil {
		t.Fatal(err)
	}
	reg.Place(6, 12)
	if err := reg.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	force := padDrive(t, r, s, 6, 6, reg.Ports("d"))
	force(0xA)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, reg.Ports("q")); got != 0xA {
		t.Errorf("q=%#x after first edge, want 0xA", got)
	}
	force(0x5)
	// Before the next edge, q still holds.
	if err := s.Eval(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, reg.Ports("q")); got != 0xA {
		t.Errorf("q=%#x before edge, want 0xA", got)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, reg.Ports("q")); got != 0x5 {
		t.Errorf("q=%#x after edge, want 0x5", got)
	}
}

func TestLFSRMatchesReference(t *testing.T) {
	r := newRig(t)
	const bits, tapA, tapB, seed = 4, 3, 2, 0x1
	l, err := NewLFSR("lfsr", bits, tapA, tapB, seed)
	if err != nil {
		t.Fatal(err)
	}
	l.Place(8, 8)
	if err := l.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	state := uint64(seed)
	seen := map[uint64]bool{}
	for cyc := 0; cyc < 20; cyc++ {
		if got := readPorts(t, s, l.Ports("q")); got != state {
			t.Fatalf("cycle %d: q=%#x, want %#x", cyc, got, state)
		}
		seen[state] = true
		// Reference Fibonacci LFSR step.
		fb := (state>>tapA ^ state>>tapB) & 1
		state = (state<<1 | fb) & (1<<bits - 1)
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) < 8 {
		t.Errorf("LFSR visited only %d states", len(seen))
	}
}

func TestComparator4(t *testing.T) {
	r := newRig(t)
	cmp := NewComparator4("cmp")
	cmp.Place(5, 12)
	if err := cmp.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	forceA := padDrive(t, r, s, 5, 6, cmp.Ports("a"))
	forceB := padDrive(t, r, s, 9, 6, cmp.Ports("b"))
	eqPin := cmp.Ports("eq")[0].Pins()[0]
	for _, c := range []struct{ a, b uint64 }{
		{0, 0}, {5, 5}, {15, 15}, {5, 4}, {0, 8}, {12, 3},
	} {
		forceA(c.a)
		forceB(c.b)
		if err := s.Eval(); err != nil {
			t.Fatal(err)
		}
		eq, _ := s.Value(eqPin.Row, eqPin.Col, eqPin.W)
		if eq != (c.a == c.b) {
			t.Errorf("a=%d b=%d: eq=%v", c.a, c.b, eq)
		}
	}
}

func TestMux2(t *testing.T) {
	r := newRig(t)
	m, err := NewMux2("mux", 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Place(5, 14)
	if err := m.Implement(r); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	forceA := padDrive(t, r, s, 5, 6, m.Ports("a"))
	forceB := padDrive(t, r, s, 9, 6, m.Ports("b"))
	// sel from a fifth pad pin.
	selPort := m.Ports("sel")[0]
	if err := r.RouteNet(core.NewPin(12, 6, arch.S0X), selPort); err != nil {
		t.Fatal(err)
	}
	forceA(0x3)
	forceB(0xC)
	for _, sel := range []bool{false, true, false} {
		if err := s.Force(12, 6, arch.S0X, sel); err != nil {
			t.Fatal(err)
		}
		if err := s.Eval(); err != nil {
			t.Fatal(err)
		}
		got := readPorts(t, s, m.Ports("z"))
		want := uint64(0x3)
		if sel {
			want = 0xC
		}
		if got != want {
			t.Errorf("sel=%v: z=%#x, want %#x", sel, got, want)
		}
	}
}

func TestRemoveRestoresDevice(t *testing.T) {
	r := newRig(t)
	ctr, err := NewCounter("ctr", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctr.Place(3, 8)
	if err := ctr.Implement(r); err != nil {
		t.Fatal(err)
	}
	if r.Dev.OnPIPCount() == 0 || len(r.Dev.ActiveCLBs()) == 0 {
		t.Fatal("counter left no footprint")
	}
	if err := ctr.Remove(r); err != nil {
		t.Fatal(err)
	}
	if n := r.Dev.OnPIPCount(); n != 0 {
		t.Errorf("%d PIPs remain after Remove", n)
	}
	if n := len(r.Dev.ActiveCLBs()); n != 0 {
		t.Errorf("%d CLBs remain active after Remove", n)
	}
	if ctr.Implemented() {
		t.Error("core still reports implemented")
	}
	// Re-implement somewhere else works.
	if err := ctr.Place(9, 15); err != nil {
		t.Fatal(err)
	}
	if err := ctr.Implement(r); err != nil {
		t.Fatal(err)
	}
}

// TestConstMulReplacement is the §3.3 scenario end to end: a constant
// multiplier wired to a register is unrouted, removed, relocated, re-
// implemented, and the router's port memory restores the connections —
// "without having to specify connections again".
func TestConstMulReplacement(t *testing.T) {
	r := newRig(t)
	mul, err := NewConstMul("mul", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mul.Place(4, 10)
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegister("reg", mul.OutBits())
	if err != nil {
		t.Fatal(err)
	}
	reg.Place(4, 16)
	if err := reg.Implement(r); err != nil {
		t.Fatal(err)
	}
	// Wire the product bus into the register port-to-port.
	pPorts := mul.Group("p").EndPoints()
	dPorts := reg.Group("d").EndPoints()
	if err := r.RouteBus(pPorts, dPorts); err != nil {
		t.Fatal(err)
	}
	s := sim.New(r.Dev)
	force := padDrive(t, r, s, 4, 4, mul.Ports("x"))
	force(7)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s, reg.Ports("q")); got != 3*7 {
		t.Fatalf("register holds %d, want 21", got)
	}

	// RTR step: unroute the bus (remembered), remove and relocate the
	// multiplier with a new constant, reconnect.
	for _, p := range mul.Ports("p") {
		if err := r.Unroute(p); err != nil {
			t.Fatal(err)
		}
	}
	// The pad nets into x also go away before removal.
	for i := 0; i < 4; i++ {
		if err := r.Unroute(core.NewPin(4, 4, arch.OutPin(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mul.Remove(r); err != nil {
		t.Fatal(err)
	}
	if err := mul.SetConstant(r, 2); err != nil {
		t.Fatal(err)
	}
	if err := mul.Place(9, 10); err != nil {
		t.Fatal(err)
	}
	if err := mul.Implement(r); err != nil {
		t.Fatal(err)
	}
	for _, p := range mul.Ports("p") {
		if err := r.Reconnect(p); err != nil {
			t.Fatal(err)
		}
	}
	// Re-drive x at the new location and verify the product arrives.
	s2 := sim.New(r.Dev)
	force2 := padDrive(t, r, s2, 4, 4, mul.Ports("x"))
	force2(6)
	if err := s2.Step(); err != nil {
		t.Fatal(err)
	}
	if got := readPorts(t, s2, reg.Ports("q")); got != 2*6 {
		t.Errorf("after replacement register holds %d, want 12", got)
	}
}

func TestPlacementValidation(t *testing.T) {
	r := newRig(t)
	add, _ := NewConstAdder("a", 4, 1, false)
	if err := add.Implement(r); err == nil {
		t.Error("unplaced core implemented")
	}
	add.Place(15, 23) // footprint 1x2 does not fit
	if err := add.Implement(r); err == nil {
		t.Error("out-of-bounds core implemented")
	}
	add.Place(4, 10)
	if err := add.Implement(r); err != nil {
		t.Fatal(err)
	}
	if err := add.Place(5, 5); err == nil {
		t.Error("re-place of implemented core accepted")
	}
	// Overlap detection.
	other, _ := NewConstAdder("b", 4, 1, false)
	other.Place(4, 10)
	if err := other.Implement(r); err == nil {
		t.Error("overlapping core implemented")
	}
	if err := other.Remove(r); err == nil {
		t.Error("removing unimplemented core accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewConstAdder("a", 0, 0, false); err == nil {
		t.Error("zero-width adder")
	}
	if _, err := NewRegister("r", 65); err == nil {
		t.Error("oversized register")
	}
	if _, err := NewConstMul("m", 9, 3); err == nil {
		t.Error("constant too big for width")
	}
	if _, err := NewConstMul("m", 1, 0); err == nil {
		t.Error("zero-width constant")
	}
	if _, err := NewLFSR("l", 4, 3, 3, 1); err == nil {
		t.Error("identical taps")
	}
	if _, err := NewLFSR("l", 4, 0, 1, 0); err == nil {
		t.Error("zero seed")
	}
	if _, err := NewMux2("m", 0); err == nil {
		t.Error("zero-width mux")
	}
}

func TestGroupAccessors(t *testing.T) {
	add, _ := NewConstAdder("a", 4, 1, false)
	if add.Ports("nope") != nil {
		t.Error("unknown group returned ports")
	}
	if add.Name() != "a" {
		t.Error("name accessor")
	}
	if add.Placed() {
		t.Error("unplaced core reports placed")
	}
	add.Place(2, 2)
	row, col, w, h := add.Bounds()
	if row != 2 || col != 2 || w != 1 || h != 2 {
		t.Errorf("bounds = %d,%d %dx%d", row, col, w, h)
	}
}
