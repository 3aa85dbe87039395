// Package oracle is the independent bitstream-level verification judge: it
// re-extracts the complete routed netlist from raw configuration frames
// only, and checks the router's §2.4–2.5 guarantees (contention protection,
// trace completeness, clean rip-up) without ever consulting the router's
// own bookkeeping.
//
// Independence is the point. The router, the device layer, and the service
// mirrors all share one in-memory routing state; a bug that corrupts that
// state corrupts every check built on it. The oracle instead treats the
// configuration stream as the ground truth it is on real hardware: it
// parses the stream header itself, derives its own PIP bit-position table
// from the architecture description (deliberately duplicating the device
// layer's enumeration — the bit layout is the file-format contract between
// the two, held equal by a test), and uses a
// *blank* device solely as a geometry/legality rules engine (Canon,
// TapAllowedAt, DriveAllowedAt are pure functions of the architecture and
// array size). No routing state flows in.
//
// On top of extraction the oracle offers four verdicts:
//
//   - Check: structural invariants of the extracted netlist — no track has
//     two drivers, no PIP is illegal at its tile, no driven routing track
//     dangles without fanout (a stale antenna), no net roots at a non-source
//     resource, no driven track is unreachable from every root (a loop).
//   - VerifyClaims: every Connection the router claims live is physically
//     continuous from its source pin to every sink pin, frame bits only.
//   - UncoveredRoots: nets present in the frames that no claim accounts for
//     (phantom nets left behind by buggy partial failures).
//   - Diff: a PIP-for-PIP structured comparison of two extracted netlists,
//     for boards claimed equivalent (daemon truth vs thin client mirror,
//     parallelism 1 vs 8).
package oracle

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/device"
)

// syncWord is the configuration stream magic. The oracle parses the header
// itself rather than trusting any device-layer accessor: the stream is the
// contract.
const syncWord = 0xAA995566

// Pin is the oracle's own endpoint type: a wire reference at a tile. It
// mirrors core.Pin's fields without importing the router.
type Pin struct {
	Row, Col int
	W        arch.Wire
}

// Claim is one net the system under test claims to have routed: a source
// pin and the sink pins it should reach. Claims are the only information
// that crosses from the router into the oracle, and they are endpoint-level
// only — the oracle re-derives all paths from frames.
type Claim struct {
	Source Pin
	Sinks  []Pin
}

// ViolationKind classifies an oracle finding.
type ViolationKind uint8

// Violation kinds.
const (
	// DoubleDriver: a bidirectional resource has two drivers — the exact
	// contention §3.4's protection exists to prevent.
	DoubleDriver ViolationKind = iota + 1
	// IllegalPIP: a configuration bit asserts a PIP that is illegal at its
	// tile (nonexistent resource, forbidden tap or drive position).
	IllegalPIP
	// Antenna: a routing track is driven but drives nothing and is not a
	// sink pin — a stale stub an unroute or rip-up left behind.
	Antenna
	// OrphanRoot: a net's root track is not a signal source (output pin,
	// global clock, input pad, BRAM output).
	OrphanRoot
	// Loop: a driven track is unreachable from every net root — only a
	// routing cycle disconnected from all sources produces this.
	Loop
	// Discontinuity: a claimed connection is not physically continuous
	// from its source to a claimed sink in the frames.
	Discontinuity
	// Phantom: frames hold a net rooted at a track no claim accounts for.
	Phantom
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case DoubleDriver:
		return "double-driver"
	case IllegalPIP:
		return "illegal-pip"
	case Antenna:
		return "antenna"
	case OrphanRoot:
		return "orphan-root"
	case Loop:
		return "loop"
	case Discontinuity:
		return "discontinuity"
	case Phantom:
		return "phantom-net"
	default:
		return "unknown"
	}
}

// Violation is one oracle finding, anchored to the PIP and/or track it
// concerns.
type Violation struct {
	Kind   ViolationKind
	PIP    device.PIP   // offending PIP, when one is implicated
	Track  device.Track // offending track, when one is implicated
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// VerifyError aggregates every violation of one audit into an error.
type VerifyError struct {
	Violations []Violation
}

// Error lists the violations, most severe classes first (the order they
// were collected).
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d violation(s):", len(e.Violations))
	for i, v := range e.Violations {
		if i >= 8 {
			fmt.Fprintf(&b, " ... and %d more", len(e.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  [%d] %s", i+1, v)
	}
	return b.String()
}

// Decoder holds the oracle's independently derived per-tile bit layout for
// one architecture. The bit order must match the device layer's bit for bit
// — both walk every wire's local fanout in wire order, skipping duplicates,
// then apply the family's plane table (arch.PIPOrder) — because that order
// *is* the configuration file format. Extract cross-checks bytes-per-tile
// against the stream header, which a permuted order keeps, so a test holds
// the two orders equal (device.TestLayoutMatchesDecoder).
type Decoder struct {
	A            *arch.Arch
	pairs        [][2]arch.Wire
	pairIdx      map[[2]arch.Wire]int
	lutBase      int
	ffInitBase   int
	lutUsedBase  int
	bramBase     int
	bitsPerTile  int
	bytesPerTile int
}

// Per-tile logic geometry, mirrored from the hardware model (4 LUTs of 16
// truth bits, 4 flip-flop init bits, 4 LUT-used bits, a BRAM block plus its
// used bit).
const (
	numLUTs = 4
	numFFs  = 4
	lutBits = 16
)

// NewDecoder derives the bit layout for an architecture.
func NewDecoder(a *arch.Arch) *Decoder {
	d := &Decoder{A: a, pairIdx: make(map[[2]arch.Wire]int)}
	for from := arch.Wire(0); from < arch.Wire(a.WireCount()); from++ {
		for _, to := range a.LocalFanout(from) {
			key := [2]arch.Wire{from, to}
			if _, dup := d.pairIdx[key]; dup {
				continue
			}
			d.pairIdx[key] = len(d.pairs)
			d.pairs = append(d.pairs, key)
		}
	}
	d.pairs = a.PIPOrder(d.pairs)
	for i, key := range d.pairs {
		d.pairIdx[key] = i
	}
	d.lutBase = len(d.pairs)
	d.ffInitBase = d.lutBase + numLUTs*lutBits
	d.lutUsedBase = d.ffInitBase + numFFs
	d.bramBase = d.lutUsedBase + numLUTs
	d.bitsPerTile = d.bramBase + arch.BRAMWords*arch.BRAMWidth + 1
	d.bytesPerTile = (d.bitsPerTile + 7) / 8
	return d
}

// PairBit returns the per-tile bit position of the PIP (from -> to), used
// by tests that hand-craft corrupt streams.
func (d *Decoder) PairBit(from, to arch.Wire) (int, bool) {
	i, ok := d.pairIdx[[2]arch.Wire{from, to}]
	return i, ok
}

// BytesPerTile returns the derived tile width in bytes — the value a valid
// stream header for this architecture must carry.
func (d *Decoder) BytesPerTile() int { return d.bytesPerTile }

// ParseHeader reads the 16-byte configuration stream header: sync word,
// then rows, cols and bytes-per-tile, all big-endian u32.
func ParseHeader(stream []byte) (rows, cols, bytesPerTile int, err error) {
	if len(stream) < 16 {
		return 0, 0, 0, fmt.Errorf("oracle: stream too short for a header (%d bytes)", len(stream))
	}
	if binary.BigEndian.Uint32(stream[0:4]) != syncWord {
		return 0, 0, 0, fmt.Errorf("oracle: missing sync word")
	}
	rows = int(binary.BigEndian.Uint32(stream[4:8]))
	cols = int(binary.BigEndian.Uint32(stream[8:12]))
	bytesPerTile = int(binary.BigEndian.Uint32(stream[12:16]))
	if rows <= 0 || cols <= 0 || bytesPerTile <= 0 {
		return 0, 0, 0, fmt.Errorf("oracle: degenerate geometry %dx%dx%d in header", rows, cols, bytesPerTile)
	}
	return rows, cols, bytesPerTile, nil
}

// Netlist is the routed netlist extracted from raw frames: every asserted
// PIP, the driver/fanout relations over canonical tracks, and the
// violations found during decode. Rules is a blank device of the stream's
// geometry used purely as the canonicalization and legality engine; it
// carries no routing state.
type Netlist struct {
	A          *arch.Arch
	Rows, Cols int
	Rules      *device.Device
	PIPs       []device.PIP // every decoded legal PIP, tile-major order
	Extraction []Violation  // violations found while decoding

	driver map[device.Key]device.PIP
	fanout map[device.Key][]device.PIP
}

// Extract decodes a full configuration stream into a Netlist. The stream's
// own CRC and framing are verified while loading (a corrupted frame
// surfaces here); the header geometry is cross-checked against the layout
// the oracle derives from the architecture.
func Extract(a *arch.Arch, stream []byte) (*Netlist, error) {
	rows, cols, bpt, err := ParseHeader(stream)
	if err != nil {
		return nil, err
	}
	dec := NewDecoder(a)
	if bpt != dec.bytesPerTile {
		return nil, fmt.Errorf("oracle: header says %d bytes/tile, architecture %s derives %d (layout drift?)",
			bpt, a.Name, dec.bytesPerTile)
	}
	raw, err := bitstream.New(bitstream.Layout{Rows: rows, Cols: cols, BytesPerTile: bpt})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if _, err := raw.ApplyConfig(stream); err != nil {
		return nil, fmt.Errorf("oracle: corrupt stream: %w", err)
	}
	rules, err := device.New(a, rows, cols)
	if err != nil {
		return nil, fmt.Errorf("oracle: building rules engine: %w", err)
	}
	n := &Netlist{
		A: a, Rows: rows, Cols: cols, Rules: rules,
		driver: make(map[device.Key]device.PIP),
		fanout: make(map[device.Key][]device.PIP),
	}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			for base := 0; base < len(dec.pairs); base += 64 {
				width := 64
				if base+width > len(dec.pairs) {
					width = len(dec.pairs) - base
				}
				word, err := raw.GetBits(row, col, base, width)
				if err != nil {
					return nil, fmt.Errorf("oracle: reading tile (%d,%d): %w", row, col, err)
				}
				for word != 0 {
					i := bits.TrailingZeros64(word)
					word &^= 1 << i
					pair := dec.pairs[base+i]
					n.admitPIP(device.PIP{Row: row, Col: col, From: pair[0], To: pair[1]})
				}
			}
		}
	}
	return n, nil
}

// admitPIP legality-checks one decoded PIP and registers it in the
// driver/fanout relations, collecting violations instead of aborting so an
// audit reports everything wrong with a board at once.
func (n *Netlist) admitPIP(p device.PIP) {
	at := device.Coord{Row: p.Row, Col: p.Col}
	from, okF := n.Rules.CanonOK(p.Row, p.Col, p.From)
	to, okT := n.Rules.CanonOK(p.Row, p.Col, p.To)
	switch {
	case !okF || !okT:
		n.Extraction = append(n.Extraction, Violation{Kind: IllegalPIP, PIP: p,
			Detail: fmt.Sprintf("PIP %s references a resource that does not exist on a %dx%d array",
				n.Rules.PIPString(p), n.Rows, n.Cols)})
		return
	case !n.A.PIPLegalLocal(p.From, p.To):
		n.Extraction = append(n.Extraction, Violation{Kind: IllegalPIP, PIP: p,
			Detail: fmt.Sprintf("no PIP %s in architecture %s", n.Rules.PIPString(p), n.A.Name)})
		return
	case !n.Rules.TapAllowedAt(from, at):
		n.Extraction = append(n.Extraction, Violation{Kind: IllegalPIP, PIP: p, Track: from,
			Detail: fmt.Sprintf("PIP %s taps %s at a forbidden tile", n.Rules.PIPString(p), n.A.WireName(from.W))})
		return
	case !n.Rules.DriveAllowedAt(to, at):
		n.Extraction = append(n.Extraction, Violation{Kind: IllegalPIP, PIP: p, Track: to,
			Detail: fmt.Sprintf("PIP %s drives %s at a forbidden tile", n.Rules.PIPString(p), n.A.WireName(to.W))})
		return
	}
	if exist, dup := n.driver[to.Key()]; dup {
		n.Extraction = append(n.Extraction, Violation{Kind: DoubleDriver, PIP: p, Track: to,
			Detail: fmt.Sprintf("%s at (%d,%d) driven by both %s and %s",
				n.A.WireName(to.W), to.Row, to.Col, n.Rules.PIPString(exist), n.Rules.PIPString(p))})
		return
	}
	n.driver[to.Key()] = p
	n.fanout[from.Key()] = append(n.fanout[from.Key()], p)
	n.PIPs = append(n.PIPs, p)
}

// sourceKind reports whether a wire kind is a legitimate net root: a
// resource that generates a signal rather than carrying one.
func sourceKind(k arch.Kind) bool {
	switch k {
	case arch.KindOutPin, arch.KindGClk, arch.KindIOBIn, arch.KindBRAMOut:
		return true
	}
	return false
}

// sinkKind reports whether a wire kind terminates a net.
func sinkKind(k arch.Kind) bool {
	switch k {
	case arch.KindInput, arch.KindCtrl, arch.KindIOBOut, arch.KindBRAMIn, arch.KindBRAMClk:
		return true
	}
	return false
}

// Roots returns the canonical root track of every net in the frames: a
// track that sources PIPs but is driven by none, in deterministic order.
func (n *Netlist) Roots() []device.Track {
	var roots []device.Track
	for key := range n.fanout {
		if _, driven := n.driver[key]; !driven {
			roots = append(roots, device.TrackOfKey(key))
		}
	}
	sort.Slice(roots, func(i, j int) bool { return lessTrack(roots[i], roots[j]) })
	return roots
}

func lessTrack(a, b device.Track) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.W < b.W
}

// Check verifies the structural invariants of the extracted netlist and
// returns every violation found: the extraction findings (illegal PIPs,
// double drivers) plus antennas, orphan roots, and loops.
func (n *Netlist) Check() []Violation {
	out := append([]Violation(nil), n.Extraction...)

	// Deterministic track order for the sweeps below.
	keys := make([]device.Track, 0, len(n.driver))
	for key := range n.driver {
		keys = append(keys, device.TrackOfKey(key))
	}
	sort.Slice(keys, func(i, j int) bool { return lessTrack(keys[i], keys[j]) })

	// Antennas: a driven track that drives nothing must be a sink pin.
	for _, t := range keys {
		k := n.A.ClassOf(t.W).Kind
		if sinkKind(k) {
			continue
		}
		if len(n.fanout[t.Key()]) == 0 {
			out = append(out, Violation{Kind: Antenna, PIP: n.driver[t.Key()], Track: t,
				Detail: fmt.Sprintf("%s at (%d,%d) is driven but drives nothing (stale antenna)",
					n.A.WireName(t.W), t.Row, t.Col)})
		}
	}

	// Orphan roots: every net must originate at a signal source.
	reached := make(map[device.Key]bool)
	var queue []device.Track
	for _, root := range n.Roots() {
		k := n.A.ClassOf(root.W).Kind
		if !sourceKind(k) {
			out = append(out, Violation{Kind: OrphanRoot, Track: root,
				Detail: fmt.Sprintf("net roots at %s at (%d,%d), a %s, not a signal source",
					n.A.WireName(root.W), root.Row, root.Col, k)})
		}
		queue = append(queue, root)
		reached[root.Key()] = true
	}

	// Loops: walk every net from its root; a driven track no walk visits
	// can only be part of a driver cycle detached from all sources.
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range n.fanout[cur.Key()] {
			t, ok := n.Rules.CanonOK(p.Row, p.Col, p.To)
			if !ok || reached[t.Key()] {
				continue
			}
			reached[t.Key()] = true
			queue = append(queue, t)
		}
	}
	for _, t := range keys {
		if !reached[t.Key()] {
			out = append(out, Violation{Kind: Loop, PIP: n.driver[t.Key()], Track: t,
				Detail: fmt.Sprintf("%s at (%d,%d) is driven but unreachable from every net root (routing cycle)",
					n.A.WireName(t.W), t.Row, t.Col)})
		}
	}
	return out
}

// reach walks the net rooted at track src and returns every track it
// reaches.
func (n *Netlist) reach(src device.Track) map[device.Key]bool {
	seen := map[device.Key]bool{src.Key(): true}
	queue := []device.Track{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range n.fanout[cur.Key()] {
			if t, ok := n.Rules.CanonOK(p.Row, p.Col, p.To); ok && !seen[t.Key()] {
				seen[t.Key()] = true
				queue = append(queue, t)
			}
		}
	}
	return seen
}

// VerifyClaims checks that every claimed connection is physically
// continuous in the frames: starting from the claim's source pin, the
// decoded PIPs must reach every claimed sink — a sink pin, or the last
// track of a path routed by hand.
func (n *Netlist) VerifyClaims(claims []Claim) []Violation {
	var out []Violation
	for _, c := range claims {
		src, ok := n.Rules.CanonOK(c.Source.Row, c.Source.Col, c.Source.W)
		if !ok {
			out = append(out, Violation{Kind: Discontinuity,
				Detail: fmt.Sprintf("claimed source %s at (%d,%d) names no resource",
					n.A.WireName(c.Source.W), c.Source.Row, c.Source.Col)})
			continue
		}
		reached := n.reach(src)
		for _, sp := range c.Sinks {
			st, ok := n.Rules.CanonOK(sp.Row, sp.Col, sp.W)
			if !ok {
				out = append(out, Violation{Kind: Discontinuity,
					Detail: fmt.Sprintf("claimed sink %s at (%d,%d) names no resource",
						n.A.WireName(sp.W), sp.Row, sp.Col)})
				continue
			}
			if !reached[st.Key()] {
				out = append(out, Violation{Kind: Discontinuity, Track: st,
					Detail: fmt.Sprintf("claimed connection %s(%d,%d) -> %s(%d,%d) is not continuous in the frames",
						n.A.WireName(c.Source.W), c.Source.Row, c.Source.Col,
						n.A.WireName(sp.W), sp.Row, sp.Col)})
			}
		}
	}
	return out
}

// UncoveredRoots returns the root track of every net in the frames that no
// claim's source accounts for, in deterministic order. A router claims
// every net it routed, clock distribution included, so a non-empty result
// is a phantom-net violation.
func (n *Netlist) UncoveredRoots(claims []Claim) []device.Track {
	covered := make(map[device.Key]bool)
	for _, c := range claims {
		if t, ok := n.Rules.CanonOK(c.Source.Row, c.Source.Col, c.Source.W); ok {
			covered[t.Key()] = true
		}
	}
	var out []device.Track
	for _, root := range n.Roots() {
		if !covered[root.Key()] {
			out = append(out, root)
		}
	}
	return out
}

// DiffEntry is one PIP present in exactly one of two compared netlists.
type DiffEntry struct {
	PIP device.PIP
	InA bool
	InB bool
}

// Diff compares two extracted netlists PIP-for-PIP and returns every
// difference in deterministic order. Boards claimed equivalent must return
// an empty diff.
func (n *Netlist) Diff(o *Netlist) []DiffEntry {
	inA := make(map[device.PIP]bool, len(n.PIPs))
	for _, p := range n.PIPs {
		inA[p] = true
	}
	inB := make(map[device.PIP]bool, len(o.PIPs))
	for _, p := range o.PIPs {
		inB[p] = true
	}
	var out []DiffEntry
	for _, p := range n.PIPs {
		if !inB[p] {
			out = append(out, DiffEntry{PIP: p, InA: true})
		}
	}
	for _, p := range o.PIPs {
		if !inA[p] {
			out = append(out, DiffEntry{PIP: p, InB: true})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].PIP, out[j].PIP
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// DiffStreams extracts both streams and diffs them — the one-call form for
// comparing a daemon's readback against a thin client mirror.
func DiffStreams(a *arch.Arch, streamA, streamB []byte) ([]DiffEntry, error) {
	na, err := Extract(a, streamA)
	if err != nil {
		return nil, fmt.Errorf("oracle: stream A: %w", err)
	}
	nb, err := Extract(a, streamB)
	if err != nil {
		return nil, fmt.Errorf("oracle: stream B: %w", err)
	}
	return na.Diff(nb), nil
}

// Audit is the standard full verdict: extract the stream, run the
// structural checks, and verify the claims. A nil error means the board is
// oracle-clean; otherwise the returned error is a *VerifyError listing
// every violation (or a plain error if the stream itself cannot be
// decoded). Phantom-net detection is on with strictCoverage: a router
// claims every net it routes, so only an audit without the router's claims
// (a readback checked for structure alone) turns it off.
func Audit(a *arch.Arch, stream []byte, claims []Claim, strictCoverage bool) error {
	n, err := Extract(a, stream)
	if err != nil {
		return err
	}
	viol := n.Check()
	viol = append(viol, n.VerifyClaims(claims)...)
	if strictCoverage {
		for _, root := range n.UncoveredRoots(claims) {
			viol = append(viol, Violation{Kind: Phantom, Track: root,
				Detail: fmt.Sprintf("frames hold a net rooted at %s at (%d,%d) that no claim accounts for",
					a.WireName(root.W), root.Row, root.Col)})
		}
	}
	if len(viol) > 0 {
		return &VerifyError{Violations: viol}
	}
	return nil
}
