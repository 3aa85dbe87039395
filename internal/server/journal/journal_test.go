package journal

import (
	"reflect"
	"testing"

	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

func rec(seq uint64, owner string, row int) protocol.RecordMsg {
	src := protocol.PinMsg{Row: row, Col: 1, Wire: 2}
	sink := protocol.PinMsg{Row: row, Col: 5, Wire: 3}
	return protocol.RecordMsg{Seq: seq, Owner: owner, NetMsg: protocol.NetMsg{
		Source: protocol.EndPointMsg{Pin: &src},
		Sinks:  []protocol.EndPointMsg{{Pin: &sink}},
		Pips:   []protocol.PipMsg{{Row: row, Col: 1, From: 2, To: 9}}}}
}

// TestApplyAndForm: a journal applies runs of entries in order — cores by
// name in creation order, records by number, gone records, dropped owners
// — and hands each owner's form out with records in sequence order; the
// form of "" is every owner's.
func TestApplyAndForm(t *testing.T) {
	j := New()
	apply := func(build func([]byte) []byte) {
		t.Helper()
		if err := j.Apply(build(nil)); err != nil {
			t.Fatal(err)
		}
	}
	a1, a3, b2 := rec(1, "a", 1), rec(3, "a", 3), rec(2, "b", 2)
	coreA := protocol.CoreMsg{Owner: "a", Name: "r", Kind: "register", Row: 4, Col: 4, Bits: 2}
	apply(func(b []byte) []byte {
		b, _ = v3.AppendCoreEntry(b, &coreA)
		b, _ = v3.AppendRecordEntry(b, false, &a3)
		b, _ = v3.AppendRecordEntry(b, false, &b2)
		b, _ = v3.AppendRecordEntry(b, true, &a1)
		return v3.AppendMarkEntry(b, v3.EntryGone, "b", 7) // never held: no-op
	})
	moved := coreA
	moved.Row = 9
	apply(func(b []byte) []byte {
		b, _ = v3.AppendCoreEntry(b, &moved) // changed in place, creation order kept
		return v3.AppendMarkEntry(b, v3.EntryGone, "a", 3)
	})
	got, err := j.Form("a")
	if err != nil {
		t.Fatal(err)
	}
	if want := (protocol.SessionMsg{Cores: []protocol.CoreMsg{moved}, Memory: []protocol.RecordMsg{a1}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("a's form is\n%+v\nwant\n%+v", got, want)
	}
	all, _ := j.Form("")
	if len(all.Live) != 1 || all.Live[0].Seq != 2 || len(all.Memory) != 1 || len(all.Cores) != 1 {
		t.Fatalf("the form of every owner is %+v", all)
	}
	apply(func(b []byte) []byte { return v3.AppendMarkEntry(b, v3.EntryDrop, "a", 0) })
	if got, _ := j.Form("a"); !reflect.DeepEqual(got, protocol.SessionMsg{}) {
		t.Fatalf("a dropped owner's form is %+v", got)
	}
	j.Drop("b")
	if got, _ := j.Form(""); !reflect.DeepEqual(got, protocol.SessionMsg{}) {
		t.Fatalf("an emptied journal's form is %+v", got)
	}
	if err := j.Apply([]byte{0x7F}); err == nil {
		t.Fatal("an entry of no known tag applied")
	}
}
