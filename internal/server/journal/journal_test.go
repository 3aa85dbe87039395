package journal

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// rec is a record entry: one pin net on row row, live or remembered.
func rec(memory bool, seq uint64, owner string, row int) []byte {
	b, at := v3.AppendRecordEntry(nil, memory, owner, seq)
	b = v3.AppendPinEnd(append(b, 0), row, 1, 2)
	b = v3.AppendPinEnd(v3.AppendCount(b, 1), row, 5, 3)
	b = v3.AppendPip(v3.AppendCount(b, 1), row, 1, 2, 9)
	return v3.EndRecordEntry(v3.AppendCount(v3.AppendCount(b, 0), 0), at)
}

func coreEntry(c protocol.CoreMsg) []byte {
	b, _ := v3.AppendCoreEntry(nil, "a", &c)
	return b
}

// TestApplyAndForm: a journal applies runs of entries in order — cores by
// name in creation order, records by number, gone records, dropped owners
// — and hands each owner's form out with cores first, then live records and
// remembered ones, each in sequence order; the form of "" is every owner's.
func TestApplyAndForm(t *testing.T) {
	j := New()
	apply := func(entries ...[]byte) {
		t.Helper()
		if err := j.Apply(slices.Concat(entries...)); err != nil {
			t.Fatal(err)
		}
	}
	form := func(owner string, live int, want ...[]byte) {
		t.Helper()
		if got, n := j.Form(owner); !bytes.Equal(got, slices.Concat(want...)) || n != live {
			t.Fatalf("%q's form is %x with %d live records\nwant %x with %d", owner, got, n, slices.Concat(want...), live)
		}
	}
	a1, a3, a4, b2 := rec(true, 1, "a", 1), rec(false, 3, "a", 3), rec(false, 4, "a", 4), rec(false, 2, "b", 2)
	coreA := protocol.CoreMsg{Name: "r", Kind: "register", Row: 4, Col: 4, Bits: 2}
	apply(coreEntry(coreA), a4, a3, b2, a1,
		v3.AppendMarkEntry(nil, v3.EntryGone, "b", 7)) // never held: no-op
	moved := coreA
	moved.Row = 9
	apply(coreEntry(moved), // changed in place, creation order kept
		v3.AppendMarkEntry(nil, v3.EntryGone, "a", 3))
	form("a", 1, coreEntry(moved), a4, a1)
	form("", 2, coreEntry(moved), b2, a4, a1)

	// A run that does not decode whole changes nothing, though every entry
	// before the broken one does.
	before, _ := j.Form("")
	bad := slices.Concat(v3.AppendMarkEntry(nil, v3.EntryDrop, "a", 0), rec(false, 5, "b", 5))
	if err := j.Apply(bad[:len(bad)-1]); err == nil {
		t.Fatal("a run whose last entry is cut short applied")
	}
	if after, _ := j.Form(""); !bytes.Equal(after, before) {
		t.Fatal("a run refused by Apply changed the journal")
	}

	apply(v3.AppendMarkEntry(nil, v3.EntryDrop, "a", 0))
	form("a", 0)
	j.Drop("b")
	form("", 0)
	if err := j.Apply([]byte{0x7F}); err == nil {
		t.Fatal("an entry of no known tag applied")
	}
}
