package device

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// Edge is one architecture-legal expansion from a track, in the compact
// form the search loops stream through: the PIP to turn on and the
// canonical track it drives, 20 bytes where PIP plus Track are 48. Tiles
// are stored relative to the source track's canonical tile, which makes the
// adjacency of two tiles that sit alike on the array — same distances to
// the nearby edges, same phase in the long-line and block-RAM periods —
// identical, so they share one chunk (see adjCache). A long line's fixed
// coordinate is the exception: a horizontal long is canonical at column 0
// and a vertical one at row 0 wherever it is driven from, so that
// coordinate is absolute. The driven track's TrackIndex is stored too, as
// Delta from one of the source tile's Bases, so a search reads an edge's
// target without widening it. Only a choice that survives the search
// filters is widened to a PIP or a Track.
type Edge struct {
	TRow, TCol int16     // canonical tile of the driven track, relative
	PRow, PCol int16     // tile of the PIP, relative
	TW         uint16    // canonical wire of the driven track
	From, To   uint16    // the PIP's local wires at its tile
	Kind       arch.Kind // ClassOf(TW).Kind
	Base       uint8     // the Bases entry Delta is from: BaseTile, BaseRow or BaseCol
	Delta      int32     // TrackIndex of the driven track, less that base
}

// Bases are the three track indices of a tile that an edge's target index
// is relative to: the tile's first slot, the first slot of its row (where a
// horizontal long line is canonical), and the first slot of its column in
// row 0 (where a vertical one is). Like the edges' tile offsets they make
// Delta the same at every tile that shares a chunk.
type Bases [3]int32

// The entries of Bases.
const (
	BaseTile = iota
	BaseRow
	BaseCol
)

// BasesAt returns the bases of tile at.
func (d *Device) BasesAt(at Coord) Bases {
	return Bases{
		BaseTile: int32((at.Row*d.Cols + at.Col) * d.slots),
		BaseRow:  int32(at.Row * d.Cols * d.slots),
		BaseCol:  int32(at.Col * d.slots),
	}
}

// TargetIndex is TrackIndex(e.Target(at)) for an edge of a track canonical
// at tile at, given b = BasesAt(at).
func (e *Edge) TargetIndex(b *Bases) int32 { return b[e.Base] + e.Delta }

// PIP widens the PIP of an edge of a track canonical at tile at.
func (e *Edge) PIP(at Coord) PIP {
	return PIP{Row: at.Row + int(e.PRow), Col: at.Col + int(e.PCol), From: arch.Wire(e.From), To: arch.Wire(e.To)}
}

// Target widens the track driven by an edge of a track canonical at tile at.
func (e *Edge) Target(at Coord) Track {
	row, col := e.TargetTile(at)
	return Track{Row: row, Col: col, W: arch.Wire(e.TW)}
}

// TargetTile is the tile of Target, for a caller that needs no more: the
// search's box test.
func (e *Edge) TargetTile(at Coord) (row, col int) {
	row, col = at.Row+int(e.TRow), at.Col+int(e.TCol)
	switch e.Kind {
	case arch.KindLongH:
		col = 0
	case arch.KindLongV:
		row = 0
	}
	return row, col
}

// adjChunk is the adjacency of the tracks canonical at one tile, in
// compressed-sparse-row form: the edges of the track in slot s are
// edges[off[s]:off[s+1]], empty for a slot whose wire names no track
// canonical there.
type adjChunk struct {
	off   []uint32
	edges []Edge
}

// adjCache is the lazily-filled adjacency for one (arch, rows, cols)
// geometry. Edges depend only on the architecture's connectivity rules and
// the array bounds — never on routing state — so one cache is shared by
// every device of the same geometry, and concurrent readers need no locks:
// a tile's chunk is published with an atomic pointer.
//
// A tile's chunk is derived whole on the first visit to any of its tracks,
// then interned by content: edges are tile-relative, so on a 64x96 array a
// few hundred distinct chunks serve all 6144 tiles, and the adjacency a
// search streams through is megabytes, not the third of a gigabyte that
// one chunk per tile would be.
type adjCache struct {
	chunks []atomic.Pointer[adjChunk] // by tile
	shapes []tapShape                 // by wire
	taps   tapTable                   // the shapes' tap distances, for SinkDist

	mu     sync.Mutex
	shared map[uint64][]*adjChunk // content hash -> the distinct chunks with it
}

// adjKey identifies a geometry by architecture *parameters*, not pointer:
// constructors like NewVirtex return a fresh *Arch per call, and devices of
// equal parameters must share (same parameters imply the same wire layout
// and connectivity tables).
type adjKey struct {
	name             string
	singles, hexes   int
	hexLen, numLong  int
	longPeriod       int
	bidiHex, bramCol int
	rows, cols       int
}

var (
	adjMu  sync.Mutex
	adjTab = map[adjKey]*adjCache{}
)

// adjCacheFor returns the shared adjacency cache for a geometry, creating
// it (empty) on first use. The table is bounded: geometries are few in any
// real run, but property tests churn through many sizes, so it is reset
// when it grows past a generous cap rather than growing without limit.
func adjCacheFor(a *arch.Arch, rows, cols int) *adjCache {
	k := adjKey{
		name: a.Name, singles: a.SinglesPerDir, hexes: a.HexesPerDir,
		hexLen: a.HexLen, numLong: a.NumLong, longPeriod: a.LongAccessPeriod,
		bidiHex: a.BidiHexPeriod, bramCol: a.BRAMColumnPeriod,
		rows: rows, cols: cols,
	}
	adjMu.Lock()
	defer adjMu.Unlock()
	if c, ok := adjTab[k]; ok {
		return c
	}
	if len(adjTab) >= 64 {
		adjTab = map[adjKey]*adjCache{}
	}
	c := &adjCache{
		chunks: make([]atomic.Pointer[adjChunk], rows*cols),
		shapes: tapShapes(a),
		shared: map[uint64][]*adjChunk{},
	}
	c.taps = newTapTable(c.shapes)
	adjTab[k] = c
	return c
}

// EdgesAt returns the legal PIP expansions from the canonical track at
// index i, and the track's tile, which the edges are relative to: at each
// tap tile, each architecture-legal target that can be driven there, in tap
// order then LocalFanout order. Targets that already have a driver are
// included (the caller decides whether reuse or avoidance applies); targets
// that would leave the array are not. The slice is shared by every device
// of this geometry and must not be mutated. The first access to a tile
// derives its chunk from the architecture rules; later accesses — from any
// device, on any goroutine — are one atomic load.
func (d *Device) EdgesAt(i int32) ([]Edge, Coord) {
	tile := int(i) / d.slots
	if i < 0 || tile >= len(d.adjc.chunks) {
		return nil, Coord{}
	}
	ch := d.adjc.chunks[tile].Load()
	if ch == nil {
		// Racing derivations intern to the same chunk.
		ch = d.adjc.intern(d.deriveChunk(tile))
		d.adjc.chunks[tile].Store(ch)
	}
	s := int(i) - tile*d.slots
	return ch.edges[ch.off[s]:ch.off[s+1]], Coord{Row: tile / d.Cols, Col: tile % d.Cols}
}

// Edges is EdgesAt for a track; nil if t is not on the array.
func (d *Device) Edges(t Track) ([]Edge, Coord) {
	i, ok := d.TrackIndexOK(t)
	if !ok {
		return nil, Coord{}
	}
	return d.EdgesAt(i)
}

// intern returns the chunk every tile with ch's content shares.
func (c *adjCache) intern(ch *adjChunk) *adjChunk {
	h := uint64(len(ch.edges))
	for _, o := range ch.off {
		h = (h ^ uint64(o)) * 0x100000001b3
	}
	for i := range ch.edges {
		e := &ch.edges[i]
		h = (h ^ (uint64(uint16(e.TRow)) | uint64(uint16(e.TCol))<<16 | uint64(uint16(e.PRow))<<32 | uint64(uint16(e.PCol))<<48)) * 0x100000001b3
		h = (h ^ (uint64(e.TW) | uint64(e.From)<<16 | uint64(e.To)<<32 | uint64(e.Kind)<<48 | uint64(e.Base)<<56) ^ uint64(uint32(e.Delta))<<8) * 0x100000001b3
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.shared[h] {
		if slices.Equal(have.off, ch.off) && slices.Equal(have.edges, ch.edges) {
			return have
		}
	}
	ch.edges = slices.Clone(ch.edges) // the derivation's slice has append's slack
	c.shared[h] = append(c.shared[h], ch)
	return ch
}

// deriveChunk derives the adjacency of every track canonical at a tile.
func (d *Device) deriveChunk(tile int) *adjChunk {
	row, col := tile/d.Cols, tile%d.Cols
	ch := &adjChunk{
		off:   make([]uint32, d.slots+1),
		edges: make([]Edge, 0, 24*d.slots), // a Virtex tile has ~3600; intern trims
	}
	taps := make([]Coord, 0, max(d.Rows, d.Cols)) // a long line's taps at most
	bases := d.BasesAt(Coord{row, col})
	for s := range d.slots {
		ch.off[s] = uint32(len(ch.edges))
		w := d.A.SlotWire(s)
		t := Track{row, col, w}
		if c, ok := d.CanonOK(row, col, w); ok && c == t {
			taps = d.AppendTaps(taps[:0], t)
			ch.edges = d.derivePIPChoices(ch.edges, t, taps, &bases)
		}
	}
	ch.off[d.slots] = uint32(len(ch.edges))
	return ch
}

// derivePIPChoices is the derivation step: walk the track's tap tiles,
// resolve its local name there, and append each architecture-legal fanout
// target that exists on the array and may be driven at that tile. b is
// BasesAt the track's tile.
func (d *Device) derivePIPChoices(out []Edge, t Track, taps []Coord, b *Bases) []Edge {
	for _, tap := range taps {
		f := d.LocalName(t, tap)
		if f == arch.Invalid {
			continue
		}
		for _, toW := range d.A.LocalFanout(f) {
			to, ok := d.CanonOK(tap.Row, tap.Col, toW)
			if !ok {
				continue
			}
			if !d.DriveAllowedAt(to, tap) {
				continue
			}
			e := Edge{
				TRow: int16(to.Row - t.Row), TCol: int16(to.Col - t.Col), TW: uint16(to.W),
				PRow: int16(tap.Row - t.Row), PCol: int16(tap.Col - t.Col),
				From: uint16(f), To: uint16(toW),
				Kind: d.A.ClassOf(to.W).Kind,
			}
			switch e.Kind {
			case arch.KindLongH:
				e.TCol, e.Base = 0, BaseRow
			case arch.KindLongV:
				e.TRow, e.Base = 0, BaseCol
			}
			e.Delta = d.TrackIndex(to) - b[e.Base]
			out = append(out, e)
		}
	}
	return out
}
