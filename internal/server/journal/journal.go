// Package journal keeps sessions the way their routers export them. A
// worker hands out what each acknowledged mutating op changed in its
// records as a run of v3 delta entries (cores made or changed, live and
// remembered records by sequence number, records gone, owners dropped);
// a Journal applies those runs and hands back each owner's form — the run
// of entries session_import carries to another router as it is, which
// only that router decodes. The fleet keeps one per board slot, fed by the
// slot's worker, and fails a slot over by importing the form of every
// owner; the gateway keeps one per backend, fed by the deltas its
// responses carry, and moves a session by importing that session's form.
package journal

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	v3 "repro/internal/server/protocol/v3"
)

// Journal is a set of session forms kept by applying deltas. It keeps each
// entry as it came. It is safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	stamp  uint64 // creation stamp of the newest core
	owners map[string]*owned
}

// owned is one owner's part: its cores' entries, stamped in creation order
// and keyed by name, and its records' entries by sequence number.
type owned struct {
	cores   map[string]entry
	records map[uint64]entry
}

type entry struct {
	key uint64 // a core's creation stamp, a record's sequence number
	raw []byte
}

// New returns an empty journal.
func New() *Journal { return &Journal{owners: make(map[string]*owned)} }

// Apply folds one run of delta entries in, all or nothing: a run that
// does not decode whole changes nothing. It keeps slices of delta: the
// caller must not write into it afterwards.
func (j *Journal) Apply(delta []byte) error {
	for b := delta; len(b) > 0; {
		var err error
		if _, b, err = v3.NextEntry(b); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(delta) > 0 {
		e, rest, _ := v3.NextEntry(delta)
		raw := delta[:len(delta)-len(rest)]
		delta = rest
		o := j.owners[string(e.Owner)]
		switch {
		case e.Tag == v3.EntryDrop:
			delete(j.owners, string(e.Owner))
			continue
		case o == nil && e.Tag == v3.EntryGone:
			continue
		case o == nil:
			o = &owned{cores: make(map[string]entry), records: make(map[uint64]entry)}
			j.owners[string(e.Owner)] = o
		}
		switch e.Tag {
		case v3.EntryCore:
			c, ok := o.cores[e.Core.Name]
			if !ok {
				j.stamp++
				c.key = j.stamp
			}
			o.cores[e.Core.Name] = entry{c.key, raw}
		case v3.EntryLive, v3.EntryMemory:
			o.records[e.Seq] = entry{e.Seq, raw}
		case v3.EntryGone:
			delete(o.records, e.Seq)
		}
	}
	return nil
}

// Drop forgets everything the journal holds of one owner.
func (j *Journal) Drop(owner string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.owners, owner)
}

// Form returns one owner's form, or with owner "" every owner's together,
// and how many live records it holds: cores in creation order, then live
// records and remembered ones, each in sequence order. A journal fed by one
// router holds one sequence, so the form of all of them is that router's.
func (j *Journal) Form(owner string) (run []byte, live int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var es []entry
	for name, o := range j.owners {
		if owner != "" && name != owner {
			continue
		}
		for _, e := range o.cores {
			es = append(es, e)
		}
		for _, e := range o.records {
			es = append(es, e)
		}
	}
	// An entry's tag, its first byte, puts cores before live records and
	// those before remembered ones.
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.raw[0], b.raw[0]), cmp.Compare(a.key, b.key))
	})
	for _, e := range es {
		run = append(run, e.raw...)
		if e.raw[0] == v3.EntryLive {
			live++
		}
	}
	return run, live
}
