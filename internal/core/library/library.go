// Package library is the persistent half of the relocation-aware route
// cache: a versioned, content-addressed on-disk collection of relocatable
// route templates, keyed by (architecture, geometry, source/sink wire
// class, Δrow/Δcol) with each path stored relative to its source tile.
//
// The route cache (internal/core/routecache.go) learns these templates from
// real searches but forgets them at process exit, so every jrouted cold
// start and every spare-promotion failover re-pays full maze searches. A
// library file closes that gap: a `jrouted -learn` campaign warms a router,
// harvests its learned templates (plus the pre-routed intra-core wiring of
// the stdlib cores), and writes them here; daemons load the file at startup
// and every session router shares it read-only as a pre-seeded template
// tier below the in-session learned entries.
//
// Safety model — entries are gated, never trusted:
//
//   - every entry carries a CRC32 over its encoding; a corrupt entry is
//     skipped and counted at load, never decoded into the usable set.
//   - Audit replays every surviving entry, once per loaded library, on a
//     blank scratch device of the library's architecture and geometry
//     through maze.Replay — the same legality sweep that gates runtime
//     replays — and additionally demands that the path actually drives
//     the keyed sink wire. Entries that fail
//     (stale against the current rules engine, truncated shapes, paths
//     that end short of their sink) are dropped and counted.
//   - at use time every template still passes a fresh maze.Replay sweep
//     against *current* occupancy before a single PIP is committed, so
//     even an audited entry can only ever short-circuit a search, not
//     corrupt routing state.
//
// The file layout (all little-endian):
//
//	magic "JRTL" | u16 version | u8 archLen | arch | u32 rows | u32 cols
//	| u32 entryCount | u64 contentHash | entries...
//
// and each entry:
//
//	u32 payloadLen | payload | u32 crc32(payload)
//	payload: varint srcW, sinkW, dRow, dCol, pathLen, then per PIP
//	         varint row, col, from, to (coords relative to the source tile)
//
// The content hash (FNV-64a over the accepted entry payloads in order) is
// the library's address: two files with the same hash seed identical
// template tiers, and every determinism claim ("for a given library file,
// bitstreams are byte-identical") is scoped to that ID.
package library

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"repro/internal/arch"
	"repro/internal/device"
	"repro/internal/maze"
)

// Magic is the file signature.
const Magic = "JRTL"

// Version is the current format version. Readers reject other versions:
// the format is pinned, not negotiated.
const Version = 1

// maxPathLen bounds a single entry's PIP count — far above any real
// template (searches cap out in the hundreds of hops) and low enough that
// a corrupted length field cannot make the decoder allocate gigabytes.
const maxPathLen = 1 << 16

// Key identifies a relocatable route shape, mirroring the route cache's
// template key: same source and sink wire class at the same relative
// offset means the same path shape applies anywhere the geometry repeats.
type Key struct {
	SrcW, SinkW arch.Wire
	DRow, DCol  int
}

// Entry is one relocatable template: its shape key and the PIP path
// relative to the source tile.
type Entry struct {
	Key  Key
	Path []device.PIP
}

// LoadStats reports what a decode accepted and what it refused.
type LoadStats struct {
	Entries int // entries decoded into the library
	Skipped int // entries dropped: CRC mismatch or undecodable payload
}

// Library is an immutable template collection. After construction it is
// read-only and safe for concurrent use from any number of routers — the
// fleet loads one library and every board shard shares it, audited once
// (see Audit).
type Library struct {
	archName   string
	rows, cols int
	entries    map[Key][]device.PIP
	order      []Key
	id         uint64
	auditOnce  sync.Once
	audit      *Library // Audit's result, once it has run
	auditErr   error
}

// Arch returns the architecture family the library was learned on.
func (l *Library) Arch() string { return l.archName }

// Geometry returns the array size the library was learned on.
func (l *Library) Geometry() (rows, cols int) { return l.rows, l.cols }

// Len returns the number of usable entries.
func (l *Library) Len() int { return len(l.order) }

// ID returns the content address: a stable hash over the entry payloads.
func (l *Library) ID() string { return fmt.Sprintf("%016x", l.id) }

// Lookup returns the relative path for a shape key, or false. The returned
// slice is the library's own storage: callers must not mutate it.
func (l *Library) Lookup(srcW, sinkW arch.Wire, dRow, dCol int) ([]device.PIP, bool) {
	p, ok := l.entries[Key{SrcW: srcW, SinkW: sinkW, DRow: dRow, DCol: dCol}]
	return p, ok
}

// Entries returns the entries in insertion order. Paths are copied.
func (l *Library) Entries() []Entry {
	out := make([]Entry, 0, len(l.order))
	for _, k := range l.order {
		out = append(out, Entry{Key: k, Path: append([]device.PIP(nil), l.entries[k]...)})
	}
	return out
}

// CompatibleWith reports whether the library was learned on this exact
// architecture and geometry. Templates are relative shapes, but tap and
// drive legality depend on the rules engine and array edges, so a library
// is only ever consulted on the fabric it was learned for.
func (l *Library) CompatibleWith(archName string, rows, cols int) bool {
	return l.archName == archName && l.rows == rows && l.cols == cols
}

// Audit replays every entry on a blank scratch device of the library's own
// architecture and geometry and returns the audited library holding the
// survivors plus the count of entries dropped. a must be the library's
// architecture. Beyond maze.Replay's legality sweep (existence, PIP
// legality, tap/drive rules, connectivity from the source wire), an entry
// must actually drive its keyed sink wire at (ΔRow, ΔCol) — a CRC-valid
// but semantically stale entry would otherwise count a route without
// connecting anything.
//
// The sweep runs once per library value: every later call, from any
// goroutine, returns the first one's result, and the audited library's own
// Audit returns itself with nothing dropped. So every router that attaches
// one loaded library shares one audited copy and reports the same count.
func (l *Library) Audit(a *arch.Arch) (*Library, int, error) {
	if a == nil || a.Name != l.archName {
		return nil, 0, fmt.Errorf("library: audit arch %q does not match library arch %q",
			archNameOf(a), l.archName)
	}
	l.auditOnce.Do(func() {
		dev, err := device.New(a, l.rows, l.cols)
		if err != nil {
			l.auditErr = fmt.Errorf("library: audit scratch device: %w", err)
			return
		}
		out := &Library{
			archName: l.archName, rows: l.rows, cols: l.cols,
			entries: make(map[Key][]device.PIP, len(l.entries)),
		}
		for _, k := range l.order {
			if auditEntry(dev, k, l.entries[k]) {
				out.entries[k] = l.entries[k]
				out.order = append(out.order, k)
			}
		}
		out.id = contentHash(out.order, out.entries)
		out.auditOnce.Do(func() { out.audit = out })
		l.audit = out
	})
	if l.auditErr != nil {
		return nil, 0, l.auditErr
	}
	return l.audit, l.Len() - l.audit.Len(), nil
}

func archNameOf(a *arch.Arch) string {
	if a == nil {
		return "<nil>"
	}
	return a.Name
}

// auditAnchorWindow bounds how many anchor offsets per axis the audit
// tries. Paths through segmented wires (long lines, hex runs) are only
// legal where the template's tiles align with the segmentation, so a
// single anchor can falsely condemn a template that replays fine at an
// aligned position; a small window covers every alignment class of the
// virtex-style fabrics (long-line period <= 6).
const auditAnchorWindow = 8

// auditEntry sweeps one entry at anchors chosen so the whole shape fits
// the array, accepting the first anchor where the path replays legally AND
// actually drives the keyed sink wire. An entry that is legal nowhere in
// the window is dropped — at use time it could only ever fail its
// occupancy sweep anyway.
func auditEntry(dev *device.Device, k Key, path []device.PIP) bool {
	if len(path) == 0 || len(path) > maxPathLen {
		return false
	}
	minR, minC, maxR, maxC := 0, 0, 0, 0
	for _, p := range path {
		minR, maxR = min(minR, p.Row), max(maxR, p.Row)
		minC, maxC = min(minC, p.Col), max(maxC, p.Col)
	}
	minR, maxR = min(minR, k.DRow), max(maxR, k.DRow)
	minC, maxC = min(minC, k.DCol), max(maxC, k.DCol)
	if maxR-minR >= dev.Rows || maxC-minC >= dev.Cols {
		return false // shape does not fit this geometry anywhere
	}
	slackR := min(dev.Rows-(maxR-minR)-1, auditAnchorWindow-1)
	slackC := min(dev.Cols-(maxC-minC)-1, auditAnchorWindow-1)
	for dr := 0; dr <= slackR; dr++ {
		for dc := 0; dc <= slackC; dc++ {
			if auditEntryAt(dev, k, path, -minR+dr, -minC+dc) {
				return true
			}
		}
	}
	return false
}

// auditEntryAt replays one entry at a specific anchor on the blank device.
func auditEntryAt(dev *device.Device, k Key, path []device.PIP, aRow, aCol int) bool {
	srcTrack, err := dev.Canon(aRow, aCol, k.SrcW)
	if err != nil {
		return false
	}
	route, err := maze.Replay(dev, []device.Track{srcTrack}, path, aRow, aCol)
	if err != nil {
		return false
	}
	sinkTrack, ok := dev.CanonOK(aRow+k.DRow, aCol+k.DCol, k.SinkW)
	if !ok {
		return false
	}
	for _, p := range route.PIPs {
		if t, ok := dev.CanonOK(p.Row, p.Col, p.To); ok && t == sinkTrack {
			return true
		}
	}
	return false
}

// Builder accumulates entries for a library. Adding a key twice overwrites
// the path but keeps the original insertion position, mirroring the route
// cache's in-session learning (a re-learned shape replaces its entry).
type Builder struct {
	archName   string
	rows, cols int
	entries    map[Key][]device.PIP
	order      []Key
}

// NewBuilder starts a library for one architecture and geometry.
func NewBuilder(archName string, rows, cols int) *Builder {
	return &Builder{
		archName: archName, rows: rows, cols: cols,
		entries: make(map[Key][]device.PIP),
	}
}

// Add records one template. The path is copied.
func (b *Builder) Add(k Key, path []device.PIP) {
	if len(path) == 0 || len(path) > maxPathLen {
		return
	}
	if _, dup := b.entries[k]; !dup {
		b.order = append(b.order, k)
	}
	b.entries[k] = append([]device.PIP(nil), path...)
}

// Len returns the number of entries added so far.
func (b *Builder) Len() int { return len(b.order) }

// Library freezes the builder's current contents into a library, not yet
// audited.
func (b *Builder) Library() *Library {
	l := &Library{
		archName: b.archName, rows: b.rows, cols: b.cols,
		entries: make(map[Key][]device.PIP, len(b.entries)),
		order:   append([]Key(nil), b.order...),
	}
	for k, p := range b.entries {
		l.entries[k] = append([]device.PIP(nil), p...)
	}
	l.id = contentHash(l.order, l.entries)
	return l
}

// Save writes the builder's library to w in the versioned binary format.
func (b *Builder) Save(w io.Writer) error { return b.Library().Save(w) }

// WriteFile writes the library to path, creating or truncating it.
func (b *Builder) WriteFile(path string) error { return b.Library().WriteFile(path) }

// encodeEntry appends one entry payload (no length or CRC framing).
func encodeEntry(dst []byte, k Key, path []device.PIP) []byte {
	dst = binary.AppendVarint(dst, int64(k.SrcW))
	dst = binary.AppendVarint(dst, int64(k.SinkW))
	dst = binary.AppendVarint(dst, int64(k.DRow))
	dst = binary.AppendVarint(dst, int64(k.DCol))
	dst = binary.AppendVarint(dst, int64(len(path)))
	for _, p := range path {
		dst = binary.AppendVarint(dst, int64(p.Row))
		dst = binary.AppendVarint(dst, int64(p.Col))
		dst = binary.AppendVarint(dst, int64(p.From))
		dst = binary.AppendVarint(dst, int64(p.To))
	}
	return dst
}

func contentHash(order []Key, entries map[Key][]device.PIP) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, k := range order {
		buf = encodeEntry(buf[:0], k, entries[k])
		h.Write(buf)
	}
	return h.Sum64()
}

// Save writes the library to w.
func (l *Library) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(Magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	bw.Write(u16[:])
	if len(l.archName) > 255 {
		return fmt.Errorf("library: arch name too long")
	}
	bw.WriteByte(byte(len(l.archName)))
	bw.WriteString(l.archName)
	var u32 [4]byte
	for _, v := range []uint32{uint32(l.rows), uint32(l.cols), uint32(len(l.order))} {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], l.id)
	bw.Write(u64[:])
	var payload []byte
	for _, k := range l.order {
		payload = encodeEntry(payload[:0], k, l.entries[k])
		binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
		bw.Write(u32[:])
		bw.Write(payload)
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
		bw.Write(u32[:])
	}
	return bw.Flush()
}

// WriteFile writes the library to path, creating or truncating it.
func (l *Library) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a library file. Whole-file problems (bad magic, unsupported
// version, truncation) error out; individual corrupt entries are skipped
// and counted in LoadStats, never decoded into the usable set.
func Load(path string) (*Library, LoadStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, LoadStats{}, err
	}
	return Decode(data)
}

// Decode parses a library from its binary encoding. See Load for the
// error-vs-skip contract.
func Decode(data []byte) (*Library, LoadStats, error) {
	var st LoadStats
	if len(data) < len(Magic)+2 {
		return nil, st, fmt.Errorf("library: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, st, fmt.Errorf("library: bad magic %q", data[:len(Magic)])
	}
	off := len(Magic)
	ver := binary.LittleEndian.Uint16(data[off:])
	off += 2
	if ver != Version {
		return nil, st, fmt.Errorf("library: format version %d, want %d", ver, Version)
	}
	if off >= len(data) {
		return nil, st, fmt.Errorf("library: truncated after version")
	}
	archLen := int(data[off])
	off++
	if off+archLen+12+8 > len(data) {
		return nil, st, fmt.Errorf("library: truncated header")
	}
	archName := string(data[off : off+archLen])
	off += archLen
	rows := int(binary.LittleEndian.Uint32(data[off:]))
	cols := int(binary.LittleEndian.Uint32(data[off+4:]))
	count := int(binary.LittleEndian.Uint32(data[off+8:]))
	off += 12
	fileID := binary.LittleEndian.Uint64(data[off:])
	off += 8

	// Each entry frame needs at least 8 bytes (length + CRC), so a count
	// claiming more than the remaining bytes could hold is a truncation —
	// reject it before it becomes a multi-gigabyte map preallocation.
	if count > (len(data)-off)/8 {
		return nil, st, fmt.Errorf("library: entry count %d exceeds file size", count)
	}
	l := &Library{
		archName: archName, rows: rows, cols: cols,
		entries: make(map[Key][]device.PIP, count),
	}
	for i := 0; i < count; i++ {
		if off+4 > len(data) {
			return nil, st, fmt.Errorf("library: truncated at entry %d/%d", i, count)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if plen < 0 || off+plen+4 > len(data) {
			return nil, st, fmt.Errorf("library: truncated entry %d/%d (payload %d bytes)", i, count, plen)
		}
		payload := data[off : off+plen]
		gotCRC := binary.LittleEndian.Uint32(data[off+plen:])
		off += plen + 4
		if crc32.ChecksumIEEE(payload) != gotCRC {
			st.Skipped++
			continue
		}
		k, path, ok := decodeEntry(payload)
		if !ok {
			st.Skipped++
			continue
		}
		if _, dup := l.entries[k]; !dup {
			l.order = append(l.order, k)
		}
		l.entries[k] = path
		st.Entries++
	}
	if off != len(data) {
		return nil, st, fmt.Errorf("library: %d trailing bytes after last entry", len(data)-off)
	}
	l.id = contentHash(l.order, l.entries)
	if st.Skipped == 0 && l.id != fileID {
		return nil, st, fmt.Errorf("library: content hash %016x does not match header %016x", l.id, fileID)
	}
	return l, st, nil
}

// decodeEntry parses one CRC-clean payload. A malformed payload (bad
// varint, absurd path length, trailing garbage) is rejected defensively
// even though the CRC matched.
func decodeEntry(payload []byte) (Key, []device.PIP, bool) {
	read := func() (int64, bool) {
		v, n := binary.Varint(payload)
		if n <= 0 {
			return 0, false
		}
		payload = payload[n:]
		return v, true
	}
	var vals [5]int64
	for i := range vals {
		v, ok := read()
		if !ok {
			return Key{}, nil, false
		}
		vals[i] = v
	}
	k := Key{SrcW: arch.Wire(vals[0]), SinkW: arch.Wire(vals[1]), DRow: int(vals[2]), DCol: int(vals[3])}
	n := vals[4]
	if n <= 0 || n > maxPathLen {
		return Key{}, nil, false
	}
	path := make([]device.PIP, n)
	for i := range path {
		var f [4]int64
		for j := range f {
			v, ok := read()
			if !ok {
				return Key{}, nil, false
			}
			f[j] = v
		}
		path[i] = device.PIP{Row: int(f[0]), Col: int(f[1]), From: arch.Wire(f[2]), To: arch.Wire(f[3])}
	}
	if len(payload) != 0 {
		return Key{}, nil, false
	}
	return k, path, true
}
