package device_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/oracle"
)

// TestLayoutMatchesDecoder holds the device's PIP bit positions to the ones
// the oracle derives on its own, pair for pair: the bit layout is the file
// format between them, and a permutation keeps bytes-per-tile, so the
// oracle's header check cannot see drift.
func TestLayoutMatchesDecoder(t *testing.T) {
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, err := device.New(a, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		dec := oracle.NewDecoder(a)
		pairs := a.PIPPairs()
		if d.PIPBitCount() != len(pairs) {
			t.Fatalf("%s: device lays out %d PIP bits, arch enumerates %d pairs", a.Name, d.PIPBitCount(), len(pairs))
		}
		moved := 0
		for i, p := range pairs {
			got, ok := d.PIPBit(p[0], p[1])
			want, wok := dec.PairBit(p[0], p[1])
			if !ok || !wok || got != want {
				t.Fatalf("%s: pair %s -> %s at device bit %d (%v), oracle bit %d (%v)",
					a.Name, a.WireName(p[0]), a.WireName(p[1]), got, ok, want, wok)
			}
			if got != i {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("%s: every PIP bit in enumeration order; the plane table did not apply", a.Name)
		}
	}
}
