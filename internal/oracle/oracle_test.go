package oracle

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/device"
)

// buildQuickstart routes the §3.1 worked example at the device level (the
// level-1 PIP steps from the root Example_quickstart) and returns the device plus
// the claim describing the net.
func buildQuickstart(t *testing.T) (*device.Device, Claim) {
	t.Helper()
	a := arch.NewVirtex()
	d, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	steps := []device.PIP{
		{Row: 5, Col: 7, From: arch.S1YQ, To: arch.Out(1)},
		{Row: 5, Col: 7, From: arch.Out(1), To: a.Single(arch.East, 5)},
		{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)},
		{Row: 6, Col: 8, From: a.Single(arch.South, 0), To: arch.S0F3},
	}
	for _, p := range steps {
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatalf("SetPIP %v: %v", p, err)
		}
	}
	claim := Claim{
		Source: Pin{Row: 5, Col: 7, W: arch.S1YQ},
		Sinks:  []Pin{{Row: 6, Col: 8, W: arch.S0F3}},
	}
	return d, claim
}

func fullConfig(t *testing.T, d *device.Device) []byte {
	t.Helper()
	stream, err := d.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func kinds(viol []Violation) map[ViolationKind]int {
	m := make(map[ViolationKind]int)
	for _, v := range viol {
		m[v.Kind]++
	}
	return m
}

func TestExtractCleanBoard(t *testing.T) {
	d, claim := buildQuickstart(t)
	a := arch.NewVirtex()
	n, err := Extract(a, fullConfig(t, d))
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if got := len(n.PIPs); got != 4 {
		t.Fatalf("extracted %d PIPs, want 4", got)
	}
	if viol := n.Check(); len(viol) != 0 {
		t.Fatalf("Check on a clean board: %v", viol)
	}
	if viol := n.VerifyClaims([]Claim{claim}); len(viol) != 0 {
		t.Fatalf("VerifyClaims on a continuous net: %v", viol)
	}
	// A path routed by hand may stop on a routing track: claimed, it is
	// reached like a sink pin.
	stub := Claim{Source: claim.Source, Sinks: []Pin{{Row: 5, Col: 8, W: a.Single(arch.North, 0)}}}
	if viol := n.VerifyClaims([]Claim{stub}); len(viol) != 0 {
		t.Fatalf("VerifyClaims on a track the net reaches: %v", viol)
	}
	if roots := n.UncoveredRoots([]Claim{claim}); len(roots) != 0 {
		t.Fatalf("UncoveredRoots with a covering claim: %v", roots)
	}
	if err := Audit(a, fullConfig(t, d), []Claim{claim}, true); err != nil {
		t.Fatalf("Audit: %v", err)
	}
}

// TestCorruptedFrameCaught flips one payload byte in a valid stream; the
// CRC check must reject it and Extract must fail.
func TestCorruptedFrameCaught(t *testing.T) {
	d, _ := buildQuickstart(t)
	stream := fullConfig(t, d)
	// Flip a byte well past the 16-byte raw header, inside the CRC-covered
	// packet region.
	stream[len(stream)/2] ^= 0x40
	if _, err := Extract(arch.NewVirtex(), stream); err == nil {
		t.Fatal("Extract accepted a corrupted stream")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error class: %v", err)
	}
}

// TestDoubleDriverCaught asserts a second legal driver for an
// already-driven track directly in the raw bits (SetPIP would refuse it),
// regenerates a valid stream, and requires the oracle to flag the
// contention.
func TestDoubleDriverCaught(t *testing.T) {
	d, _ := buildQuickstart(t)
	a := arch.NewVirtex()
	dec := NewDecoder(a)

	// The quickstart net drives Single(North,0) at (5,8) via the
	// west-to-north PIP. Find a different legal driver of the same
	// canonical track at one of its tap tiles.
	victim, ok := d.CanonOK(5, 8, a.Single(arch.North, 0))
	if !ok {
		t.Fatal("victim track does not canonicalize")
	}
	var second *device.PIP
	for _, tap := range d.AppendTaps(nil, victim) {
		local := d.LocalName(victim, tap)
		if local == arch.Invalid {
			continue
		}
		if !d.DriveAllowedAt(victim, tap) {
			continue
		}
		for _, from := range a.LocalDrivers(local) {
			p := device.PIP{Row: tap.Row, Col: tap.Col, From: from, To: local}
			if p == (device.PIP{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)}) {
				continue
			}
			ft, ok := d.CanonOK(tap.Row, tap.Col, from)
			if !ok || !d.TapAllowedAt(ft, tap) {
				continue
			}
			second = &p
			break
		}
		if second != nil {
			break
		}
	}
	if second == nil {
		t.Fatal("no second legal driver found for the victim track")
	}

	stream := fullConfig(t, d)
	rows, cols, bpt, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bitstream.New(bitstream.Layout{Rows: rows, Cols: cols, BytesPerTile: bpt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ApplyConfig(stream); err != nil {
		t.Fatal(err)
	}
	bit, ok := dec.PairBit(second.From, second.To)
	if !ok {
		t.Fatalf("PIP %v has no configuration bit", *second)
	}
	if err := raw.SetBit(second.Row, second.Col, bit, true); err != nil {
		t.Fatal(err)
	}
	corrupt, err := raw.FullConfig()
	if err != nil {
		t.Fatal(err)
	}

	n, err := Extract(a, corrupt)
	if err != nil {
		t.Fatalf("Extract (stream is CRC-valid): %v", err)
	}
	if kinds(n.Check())[DoubleDriver] == 0 {
		t.Fatalf("oracle missed the double driver; violations: %v", n.Check())
	}
}

// TestAntennaCaught leaves a routed stub ending on a routing wire.
func TestAntennaCaught(t *testing.T) {
	a := arch.NewVirtex()
	d, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.S1YQ, arch.Out(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 7, arch.Out(1), a.Single(arch.East, 5)); err != nil {
		t.Fatal(err)
	}
	n, err := Extract(arch.NewVirtex(), fullConfig(t, d))
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(n.Check())
	if k[Antenna] == 0 {
		t.Fatalf("oracle missed the antenna; violations: %v", n.Check())
	}
}

// TestOrphanRootCaught routes a segment whose root is a plain routing
// wire, not a signal source.
func TestOrphanRootCaught(t *testing.T) {
	a := arch.NewVirtex()
	d, err := device.New(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPIP(5, 8, a.Single(arch.West, 5), a.Single(arch.North, 0)); err != nil {
		t.Fatal(err)
	}
	n, err := Extract(arch.NewVirtex(), fullConfig(t, d))
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(n.Check())
	if k[OrphanRoot] == 0 {
		t.Fatalf("oracle missed the orphan root; violations: %v", n.Check())
	}
}

// TestDiscontinuityCaught claims a sink the frames never connect.
func TestDiscontinuityCaught(t *testing.T) {
	d, claim := buildQuickstart(t)
	claim.Sinks = append(claim.Sinks, Pin{Row: 10, Col: 10, W: arch.S0F1})
	n, err := Extract(arch.NewVirtex(), fullConfig(t, d))
	if err != nil {
		t.Fatal(err)
	}
	viol := n.VerifyClaims([]Claim{claim})
	if kinds(viol)[Discontinuity] != 1 {
		t.Fatalf("want exactly one discontinuity, got %v", viol)
	}
}

// TestPhantomNetCaught audits with no claims: the routed net and a global
// clock's tap must both surface as unaccounted roots — a clock is a net
// like any other.
func TestPhantomNetCaught(t *testing.T) {
	d, _ := buildQuickstart(t)
	if err := d.SetPIP(3, 3, arch.GClk(0), arch.S0CLK); err != nil {
		t.Fatal(err)
	}
	err := Audit(arch.NewVirtex(), fullConfig(t, d), nil, true)
	ve, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("want *VerifyError, got %v", err)
	}
	if kinds(ve.Violations)[Phantom] != 2 {
		t.Fatalf("want the net and the clock as phantoms: %v", ve.Violations)
	}
}

// TestDiffStreams checks the structured PIP-for-PIP diff.
func TestDiffStreams(t *testing.T) {
	a := arch.NewVirtex()
	d1, _ := buildQuickstart(t)
	d2, _ := buildQuickstart(t)
	extraTo := a.LocalFanout(arch.S0YQ)[0]
	if err := d2.SetPIP(9, 9, arch.S0YQ, extraTo); err != nil {
		t.Fatal(err)
	}
	diff, err := DiffStreams(a, fullConfig(t, d1), fullConfig(t, d2))
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 {
		t.Fatalf("want 1 diff entry, got %v", diff)
	}
	e := diff[0]
	if e.InA || !e.InB {
		t.Fatalf("diff entry on the wrong side: %+v", e)
	}
	want := device.PIP{Row: 9, Col: 9, From: arch.S0YQ, To: extraTo}
	if e.PIP != want {
		t.Fatalf("diff PIP = %v, want %v", e.PIP, want)
	}
	same, err := DiffStreams(a, fullConfig(t, d1), fullConfig(t, d1))
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Fatalf("identical streams diff non-empty: %v", same)
	}
}

// TestHeaderLayoutMismatch rejects a stream whose header disagrees with
// the architecture-derived tile width.
func TestHeaderLayoutMismatch(t *testing.T) {
	d, _ := buildQuickstart(t)
	stream := fullConfig(t, d)
	// bytes-per-tile lives at header offset 12..16 (big-endian u32).
	stream[15]++
	if _, err := Extract(arch.NewVirtex(), stream); err == nil {
		t.Fatal("Extract accepted a layout-mismatched header")
	}
}
