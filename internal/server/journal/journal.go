// Package journal keeps sessions the way their routers export them. A
// worker hands out what each acknowledged mutating op changed in its
// records as a run of v3 delta entries (cores made or changed, live and
// remembered records by sequence number, records gone, owners dropped);
// a Journal applies those runs and hands back each owner's form — the
// protocol.SessionMsg that session_import places on another router. The
// fleet keeps one per board slot, fed by the slot's worker, and fails a
// slot over by importing the form of every owner; the gateway keeps one
// per backend, fed by the deltas its responses carry, and moves a session
// by importing that session's form.
package journal

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// Journal is a set of session forms kept by applying deltas. It keeps each
// entry as it came and decodes only to hand a form out. It is safe for
// concurrent use.
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

// Apply folds one run of delta entries in. It keeps slices of delta: the
// caller must not write into it afterwards.
func (j *Journal) Apply(delta []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(delta) > 0 {
		e, rest, err := v3.NextEntry(delta)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
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

// Form returns one owner's form, or with owner "" every owner's together:
// cores in creation order, records in sequence order. A journal fed by one
// router holds one sequence, so the form of all of them is that router's.
func (j *Journal) Form(owner string) (form protocol.SessionMsg, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var cores, records []entry
	for name, o := range j.owners {
		if owner != "" && name != owner {
			continue
		}
		for _, e := range o.cores {
			cores = append(cores, e)
		}
		for _, e := range o.records {
			records = append(records, e)
		}
	}
	var run []byte
	for _, es := range [2][]entry{cores, records} {
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
		for _, e := range es {
			run = append(run, e.raw...)
		}
	}
	return form, v3.DecodeSession(run, &form)
}
