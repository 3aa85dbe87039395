package device

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// ContentionError reports an attempt to drive a track that already has a
// different driver. "The Virtex architecture has bi-directional routing
// resources ... leading to the possibility of contention. The router makes
// sure that this situation does not occur, and therefore protects the
// device. An exception is thrown in cases where the user tries to make
// connections that create contention." (§3.4)
type ContentionError struct {
	Track    Track  // the doubly-driven track
	Existing PIP    // the PIP already driving it
	Attempt  PIP    // the rejected PIP
	Name     string // human-readable track name
}

// Error implements the error interface.
func (e *ContentionError) Error() string {
	return fmt.Sprintf("contention on %s at (%d,%d): already driven by PIP %v, attempted %v",
		e.Name, e.Track.Row, e.Track.Col, e.Existing, e.Attempt)
}

// Device is one configured FPGA.
//
// A Device is safe for concurrent *reads* (DriverOf, Driven, EdgesAt,
// Canon...); mutating calls (SetPIP, ClearPIP, LUT/BRAM configuration) must
// not run concurrently with anything else. The parallel batch router relies
// on this: its workers only read, and all commits happen on one goroutine.
type Device struct {
	A          *arch.Arch
	Rows, Cols int

	slots  int        // A.Slots(): TrackIndex's stride
	adjc   *adjCache  // PIP-choice adjacency, shared per (arch, size)
	shapes []tapShape // by wire; see canon.go

	bits   *bitstream.Bitstream
	layout bitLayout

	// Routing state, indexed by TrackIndex; see state.go.
	occ       []uint64
	pages     []*tilePage
	freePages []*tilePage
	onPIPs    int
}

// maxSide bounds rows and columns: an Edge holds tile offsets as int16.
const maxSide = 1<<15 - 1

// New creates a device of the given array size. Virtex arrays range from
// 16x24 to 64x96 (§2), but any positive size at least twice the hex length
// is accepted.
func New(a *arch.Arch, rows, cols int) (*Device, error) {
	if min := 2 * a.HexLen; rows < min || cols < min {
		return nil, fmt.Errorf("device: array %dx%d too small for %s (need at least %dx%d)",
			rows, cols, a.Name, min, min)
	}
	if rows > maxSide || cols > maxSide || rows*cols > (1<<31-1)/a.Slots() {
		return nil, fmt.Errorf("device: array %dx%d too large (track indices are int32, tile offsets int16)", rows, cols)
	}
	d := &Device{
		A:     a,
		Rows:  rows,
		Cols:  cols,
		slots: a.Slots(),
	}
	d.layout = newBitLayout(a)
	bits, err := bitstream.New(bitstream.Layout{
		Rows: rows, Cols: cols, BytesPerTile: d.layout.bytesPerTile,
	})
	if err != nil {
		return nil, err
	}
	d.bits = bits
	d.adjc = adjCacheFor(a, rows, cols)
	d.shapes = d.adjc.shapes
	return d, nil
}

// NumTracks is the size of the compact track-index space: every canonical
// track of this device has a unique index in [0, NumTracks). The space is
// addressed arithmetically (tile-major, slot-minor), one slot per wire name
// that arch.IsCanonicalWire accepts — 164 of Virtex's 268 names — so only
// the canonical names that do not exist at a tile (a long line away from
// its row's or column's origin, a pad off the boundary) leave unused slots.
func (d *Device) NumTracks() int { return d.Rows * d.Cols * d.slots }

// TrackIndex maps a canonical track to its compact per-device index, which
// addresses the routing state, the adjacency and the search arenas. TrackAt
// is the inverse. Slots ascend with wire numbers, so index order is the
// tile-major, wire-minor order of the tracks. An alias name has no slot:
// resolve it with CanonOK first.
func (d *Device) TrackIndex(t Track) int32 {
	return int32((t.Row*d.Cols+t.Col)*d.slots + d.A.SlotOf(t.W))
}

// Size returns the array dimensions.
func (d *Device) Size() (rows, cols int) { return d.Rows, d.Cols }

// PIPString renders a PIP with wire names, paper style.
func (d *Device) PIPString(p PIP) string {
	return fmt.Sprintf("(%d,%d) %s -> %s", p.Row, p.Col, d.A.WireName(p.From), d.A.WireName(p.To))
}

// validatePIP resolves and legality-checks a PIP, returning the canonical
// source and target tracks and the PIP's configuration bit.
func (d *Device) validatePIP(p PIP) (from, to Track, bit int, err error) {
	bit, ok := d.A.PIPBit(p.From, p.To)
	if !ok {
		return from, to, bit, fmt.Errorf("device: no PIP %s -> %s in architecture %s",
			d.A.WireName(p.From), d.A.WireName(p.To), d.A.Name)
	}
	from, err = d.Canon(p.Row, p.Col, p.From)
	if err != nil {
		return from, to, bit, err
	}
	to, err = d.Canon(p.Row, p.Col, p.To)
	if err != nil {
		return from, to, bit, err
	}
	at := Coord{p.Row, p.Col}
	if !d.TapAllowedAt(from, at) {
		return from, to, bit, fmt.Errorf("device: %s cannot be tapped at (%d,%d)",
			d.A.WireName(p.From), p.Row, p.Col)
	}
	if !d.DriveAllowedAt(to, at) {
		return from, to, bit, fmt.Errorf("device: %s cannot be driven at (%d,%d)",
			d.A.WireName(p.To), p.Row, p.Col)
	}
	return from, to, bit, nil
}

// SetPIP turns on the connection from `from` to `to` in CLB (row, col),
// the paper's route(int row, int col, int from_wire, int to_wire) at the
// device level. Turning on a PIP that is already on is a no-op. A PIP whose
// target already has a different driver returns *ContentionError.
func (d *Device) SetPIP(row, col int, fromW, toW arch.Wire) error {
	p := PIP{row, col, fromW, toW}
	from, to, bit, err := d.validatePIP(p)
	if err != nil {
		return err
	}
	ti := d.TrackIndex(to)
	if d.Driven(ti) {
		exist := d.driverAt(ti)
		if exist == p {
			return nil // idempotent
		}
		return &ContentionError{Track: to, Existing: exist, Attempt: p, Name: d.A.WireName(to.W)}
	}
	d.link(p, d.TrackIndex(from), ti)
	return d.bits.SetBit(row, col, bit, true)
}

// ClearPIP turns off a connection. Clearing a PIP that is off is an error,
// since unrouting bookkeeping depends on exact net knowledge.
//
// A PIP on record as its target's driver passed validatePIP before it was
// linked (SetPIP and RebuildFromBits both check first), so ClearPIP asks
// the record before the rules: only a PIP that is not its target's driver
// is checked, for the error to report.
func (d *Device) ClearPIP(row, col int, fromW, toW arch.Wire) error {
	p := PIP{row, col, fromW, toW}
	if to, ok := d.CanonOK(row, col, toW); ok {
		if ti := d.TrackIndex(to); d.Driven(ti) && d.driverAt(ti) == p {
			from, _ := d.CanonOK(row, col, fromW)
			bit, _ := d.A.PIPBit(fromW, toW)
			d.unlink(d.TrackIndex(from), ti)
			return d.bits.SetBit(row, col, bit, false)
		}
	}
	if _, _, _, err := d.validatePIP(p); err != nil {
		return err
	}
	return fmt.Errorf("device: PIP %s is not on", d.PIPString(p))
}
