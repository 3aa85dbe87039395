package library_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core/library"
	"repro/internal/device"
)

// testEntries returns a couple of synthetic entries. The codec does not
// audit legality — these exercise framing, not routing.
func testEntries() []library.Entry {
	return []library.Entry{
		{
			Key: library.Key{SrcW: 3, SinkW: 9, DRow: 2, DCol: 5},
			Path: []device.PIP{
				{Row: 0, Col: 0, From: 3, To: 14},
				{Row: 0, Col: 3, From: 15, To: 20},
				{Row: 2, Col: 5, From: 21, To: 9},
			},
		},
		{
			Key:  library.Key{SrcW: 4, SinkW: 7, DRow: -1, DCol: 2},
			Path: []device.PIP{{Row: 0, Col: 0, From: 4, To: 7}},
		},
	}
}

func buildLibrary(t *testing.T, entries []library.Entry) []byte {
	t.Helper()
	b := library.NewBuilder("virtex", 16, 24)
	for _, e := range entries {
		b.Add(e.Key, e.Path)
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	entries := testEntries()
	data := buildLibrary(t, entries)
	l, st, err := library.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(entries) || st.Skipped != 0 {
		t.Fatalf("load stats %+v", st)
	}
	if l.Arch() != "virtex" {
		t.Errorf("arch %q", l.Arch())
	}
	if r, c := l.Geometry(); r != 16 || c != 24 {
		t.Errorf("geometry %dx%d", r, c)
	}
	for _, e := range entries {
		got, ok := l.Lookup(e.Key.SrcW, e.Key.SinkW, e.Key.DRow, e.Key.DCol)
		if !ok {
			t.Fatalf("entry %+v missing after round trip", e.Key)
		}
		if len(got) != len(e.Path) {
			t.Fatalf("entry %+v path %v, want %v", e.Key, got, e.Path)
		}
		for i := range got {
			if got[i] != e.Path[i] {
				t.Errorf("entry %+v pip %d = %v, want %v", e.Key, i, got[i], e.Path[i])
			}
		}
	}
	// The content address is a function of the entries alone: rebuilding
	// the same entries yields the same ID, and it survives the round trip.
	if again, _, _ := library.Decode(buildLibrary(t, entries)); again.ID() != l.ID() {
		t.Errorf("ID not stable: %s vs %s", again.ID(), l.ID())
	}
}

func TestEmptyLibrary(t *testing.T) {
	data := buildLibrary(t, nil)
	l, st, err := library.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || st.Entries != 0 || st.Skipped != 0 {
		t.Errorf("empty library: len %d, stats %+v", l.Len(), st)
	}
	if _, ok := l.Lookup(1, 2, 3, 4); ok {
		t.Error("lookup in empty library hit")
	}
}

func TestTruncated(t *testing.T) {
	data := buildLibrary(t, testEntries())
	for _, cut := range []int{1, 5, 8, len(data) / 2, len(data) - 1} {
		if _, _, err := library.Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	data := buildLibrary(t, testEntries())
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := library.Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(bad[4:], library.Version+1)
	if _, _, err := library.Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
}

// headerLen returns the byte offset of the first entry frame.
func headerLen(archName string) int { return 4 + 2 + 1 + len(archName) + 12 + 8 }

// TestCorruptEntrySkipped: a CRC-corrupt entry is dropped and counted; the
// rest of the file still loads, and the recomputed content address
// reflects the survivors only.
func TestCorruptEntrySkipped(t *testing.T) {
	entries := testEntries()
	data := buildLibrary(t, entries)
	off := headerLen("virtex")
	// Flip a byte inside the first entry's payload.
	bad := append([]byte(nil), data...)
	bad[off+4+2] ^= 0xFF
	l, st, err := library.Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Skipped != 1 {
		t.Fatalf("load stats %+v, want 1 entry + 1 skipped", st)
	}
	if _, ok := l.Lookup(entries[0].Key.SrcW, entries[0].Key.SinkW, entries[0].Key.DRow, entries[0].Key.DCol); ok {
		t.Error("corrupt entry still resolvable")
	}
	if _, ok := l.Lookup(entries[1].Key.SrcW, entries[1].Key.SinkW, entries[1].Key.DRow, entries[1].Key.DCol); !ok {
		t.Error("healthy entry lost")
	}
	full, _, _ := library.Decode(data)
	if l.ID() == full.ID() {
		t.Error("content address unchanged despite a dropped entry")
	}
}

// TestContentHashMismatch: with no skipped entries, a header hash that
// disagrees with the content is a whole-file error (silent bit rot in the
// header itself, or a hand-edited file).
func TestContentHashMismatch(t *testing.T) {
	data := buildLibrary(t, testEntries())
	bad := append([]byte(nil), data...)
	hashOff := 4 + 2 + 1 + len("virtex") + 12
	bad[hashOff] ^= 0xFF
	if _, _, err := library.Decode(bad); err == nil || !strings.Contains(err.Error(), "content hash") {
		t.Errorf("tampered content hash: %v", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	data := buildLibrary(t, testEntries())
	if _, _, err := library.Decode(append(data, 0xAA)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}
}

func TestWriteFileLoad(t *testing.T) {
	b := library.NewBuilder("virtex", 16, 24)
	for _, e := range testEntries() {
		b.Add(e.Key, e.Path)
	}
	path := t.TempDir() + "/lib.jrtl"
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	l, st, err := library.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 || st.Skipped != 0 {
		t.Errorf("len %d, stats %+v", l.Len(), st)
	}
	if _, _, err := library.Load(path + ".missing"); err == nil {
		t.Error("missing file loaded")
	}
}

// TestAuditRejectsGarbage: CRC-valid but semantically bogus entries (wires
// that do not exist, shapes that overflow the array, paths that never
// reach their sink) are dropped by the blank-device audit, which runs once
// per library.
func TestAuditRejectsGarbage(t *testing.T) {
	a := arch.NewVirtex()
	b := library.NewBuilder(a.Name, 16, 24)
	// Nonsense wires at a plausible offset.
	b.Add(library.Key{SrcW: 9999, SinkW: 9998, DRow: 1, DCol: 1},
		[]device.PIP{{Row: 0, Col: 0, From: 9999, To: 9998}})
	// A shape wider than the whole array.
	b.Add(library.Key{SrcW: 3, SinkW: 9, DRow: 0, DCol: 500},
		[]device.PIP{{Row: 0, Col: 500, From: 3, To: 9}})
	l := b.Library()
	audited, skipped, err := l.Audit(a)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 || audited.Len() != 0 {
		t.Errorf("audit kept %d, skipped %d; want 0 kept, 2 skipped", audited.Len(), skipped)
	}
	if again, n, _ := l.Audit(arch.NewVirtex()); again != audited || n != skipped {
		t.Errorf("second audit returned a new library or %d skipped: the sweep ran twice", n)
	}
	if self, n, _ := audited.Audit(a); self != audited || n != 0 {
		t.Errorf("auditing the audited library dropped %d entries or copied it", n)
	}
	if _, _, err := l.Audit(arch.NewKestrel()); err == nil {
		t.Error("audit against the wrong architecture succeeded")
	}
}

// TestConcurrentLookup: the library is shared read-only across fleet
// shards; N goroutines attaching it (each auditing it, as a router does)
// and hammering Lookup must be race-clean and all get the one audited
// copy (this test is part of the -race CI sweep).
func TestConcurrentLookup(t *testing.T) {
	data := buildLibrary(t, testEntries())
	l, _, err := library.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	audited := make([]*library.Library, 8)
	for i := range audited {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if audited[i], _, err = l.Audit(arch.NewVirtex()); err != nil {
				t.Error(err)
			}
			for j := 0; j < 1000; j++ {
				for _, e := range testEntries() {
					if _, ok := l.Lookup(e.Key.SrcW, e.Key.SinkW, e.Key.DRow, e.Key.DCol); !ok {
						t.Error("lookup lost an entry")
						return
					}
				}
				l.Lookup(1, 2, 3, 4)
				_ = l.ID()
				_ = l.Len()
			}
		}()
	}
	wg.Wait()
	for _, a := range audited {
		if a != audited[0] {
			t.Fatal("concurrent attaches audited the library more than once")
		}
	}
}
