package cores

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

// TestPaperB10CounterFromCores is §4: "a counter can be made from a
// constant adder with the output fed back to one input port", and
// core-based design "permits easier management of design complexity than
// using only JBits". Two user calls (Place, Implement) put an 8-bit counter
// on a 16×24 device; they make 74 PIPs and 16 LUT writes, each of which is
// one wire-level JBits Set by hand. The simulated counter then counts
// through 64 cycles.
func TestPaperB10CounterFromCores(t *testing.T) {
	r := newRig(t)
	ctr, err := NewCounter("ctr", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctr.Place(4, 10); err != nil {
		t.Fatal(err)
	}
	if err := ctr.Implement(r); err != nil {
		t.Fatal(err)
	}
	luts := 0
	for _, c := range r.Dev.ActiveCLBs() {
		for n := 0; n < device.NumLUTs; n++ {
			if _, used := r.Dev.GetLUT(c.Row, c.Col, n); used {
				luts++
			}
		}
	}
	if pips := r.Dev.OnPIPCount(); pips != 74 || luts != 16 {
		t.Errorf("counter: %d PIPs and %d LUT writes, pinned 74 and 16", pips, luts)
	}
	s := sim.New(r.Dev)
	for cyc := 0; cyc < 64; cyc++ {
		if q := readPorts(t, s, ctr.Ports("q")); q != uint64(cyc) {
			t.Fatalf("cycle %d: q=%d", cyc, q)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}
