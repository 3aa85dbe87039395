package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// A session is what its router holds of it — its cores, its live records
// and the records port memory keeps (§3.3) — and every record carries the
// session that made it: a slot-local owner index the router stamps. What
// an acknowledged mutating op changed goes out as v3 delta entries (delta,
// deliver), which journals on every tier apply; session_import places a
// journal's form back on a router (sessionImport).

// ownerOf returns the owner index of a session, handing out the next one
// on first sight; a slot hands out 255.
func (w *Worker) ownerOf(session string) (uint8, error) {
	if o, ok := w.owners[session]; ok || session == "" {
		return o, nil
	}
	if len(w.names) > 255 {
		return 0, fmt.Errorf("server: %s hosts 255 sessions, no owner index is left for %q", w.cfg.Name, session)
	}
	w.owners[session] = uint8(len(w.names))
	w.names = append(w.names, session)
	return w.owners[session], nil
}

// delta encodes what changed since the last call. The first call reports
// everything, as the router's first TakeDelta does.
func (w *Worker) delta() []byte {
	if !w.deltaOn {
		w.deltaOn, w.touched = true, w.coreList(nil)
	}
	buf := w.encode(make([]byte, 0, 256), w.dropped, w.touched, w.router.TakeDelta())
	w.touched, w.dropped = w.touched[:0], w.dropped[:0]
	return buf
}

// encode appends delta entries: the owners dropped, the cores made or
// changed, then d's live and remembered records and the records gone. It
// notes whether an entry is another owner's than the op's.
func (w *Worker) encode(buf []byte, dropped []uint8, cores []*coreEntry, d core.Delta) []byte {
	w.mixed = false
	note := func(o uint8) { w.mixed = w.mixed || o != w.cur }
	for _, o := range dropped {
		note(o)
		buf = v3.AppendMarkEntry(buf, v3.EntryDrop, w.names[o], 0)
	}
	for _, e := range cores {
		note(e.owner)
		buf, _ = v3.AppendCoreEntry(buf, w.names[e.owner], &e.msg)
	}
	for i, recs := range [2][]core.SeqRecord{d.Upserted, d.Remembered} {
		for _, r := range recs {
			note(r.Owner)
			buf = w.appendRecord(buf, i == 1, r)
		}
	}
	for _, g := range d.Retired {
		note(g.Owner)
		buf = v3.AppendMarkEntry(buf, v3.EntryGone, w.names[g.Owner], g.Seq)
	}
	return buf
}

// deliver returns the delta a response carries, if it asked for one: the
// entries of the session the op served. Another owner's entries — a
// replace that ripped and restored its nets, a failover that numbered its
// records anew — wait for a response to that owner, so each session's
// journal on a tier applies its own entries in the order its ops ran.
func (w *Worker) deliver(d []byte, want bool) []byte {
	if w.mixed || w.pending[w.cur] != nil {
		for len(d) > 0 {
			e, rest, err := v3.NextEntry(d)
			if err != nil {
				break
			}
			o := w.owners[string(e.Owner)]
			w.pending[o] = append(w.pending[o], d[:len(d)-len(rest)]...)
			d = rest
		}
		if d = w.pending[w.cur]; d == nil {
			d = []byte{}
		}
		delete(w.pending, w.cur)
	}
	if !want {
		return nil
	}
	return d
}

// appendRecord appends one router record as a delta entry, its ports named
// by core, group and index, and then its pins as At: the frame a replay
// shifts from once the core has moved. A record with a port no request can
// name (an inner core's) goes as its pins, or, remembered, not at all: no
// request can Reconnect it.
func (w *Worker) appendRecord(dst []byte, memory bool, sr core.SeqRecord) []byte {
	ends := sr.Ends
	for _, e := range ends {
		if p, ok := e.(*core.Port); ok && w.ports[p] == (protocol.PortRefMsg{}) {
			ends = nil
		}
	}
	if memory && ends == nil {
		return dst
	}
	pins := append(append(make([]core.Pin, 0, 16), sr.Source), sr.Sinks...)
	dst, at := v3.AppendRecordEntry(dst, memory, w.names[sr.Owner], sr.Seq)
	dst = append(dst, uint8(sr.Kind))
	if ends == nil {
		for i, p := range pins {
			if dst = v3.AppendPinEnd(dst, p.Row, p.Col, int(p.W)); i == 0 {
				dst = v3.AppendCount(dst, len(pins)-1)
			}
		}
		pins = nil // no At pins
	}
	for i, e := range ends {
		if p, ok := e.(core.Pin); ok {
			dst = v3.AppendPinEnd(dst, p.Row, p.Col, int(p.W))
		} else {
			dst = v3.AppendPortEnd(dst, w.ports[e.(*core.Port)])
		}
		if i == 0 {
			dst = v3.AppendCount(dst, len(ends)-1)
		}
	}
	dst = v3.AppendCount(appendPips(dst, sr.Path), len(pins))
	for _, p := range pins {
		dst = v3.AppendPin(dst, p.Row, p.Col, int(p.W))
	}
	return v3.EndRecordEntry(appendPips(dst, sr.Home), at)
}

func appendPips(dst []byte, pips []device.PIP) []byte {
	dst = v3.AppendCount(dst, len(pips))
	for _, p := range pips {
		dst = v3.AppendPip(dst, p.Row, p.Col, int(p.From), int(p.To))
	}
	return dst
}

// Export returns the form of every session on the worker as its router
// holds it now: what a journal its deltas fed holds too.
func (w *Worker) Export(ctx context.Context) (run []byte, err error) {
	err = w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
		live, mem := r.Export()
		run = w.encode(nil, nil, w.coreList(nil), core.Delta{Upserted: live, Remembered: mem})
		return nil
	})
	return run, err
}

// coreList lists the cores keep accepts (nil: every one) in creation order.
func (w *Worker) coreList(keep func(*coreEntry) bool) []*coreEntry {
	var out []*coreEntry
	for _, e := range w.cores {
		if keep == nil || keep(e) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *coreEntry) int { return cmp.Compare(a.stamp, b.stamp) })
	return out
}

// sessionImport replaces what the form's owners hold here with the form,
// all or nothing. The form is read whole first, every wire checked: an
// entry with no owner is the request's session's, and a form imported for
// a session holds no other's. Then the owners' cores, live records and
// memory come off, the form's cores are made in creation order as they are
// described now, its live records adopted replay-first in sequence order,
// and its memory filed under its ports. A step that fails takes off
// everything the import placed.
func (w *Worker) sessionImport(req *Request, resp *Response) error {
	session := w.cur
	owners := []uint8{session}
	var cores []coreEntry // made by place
	var recs [2][]core.SeqRecord
	resp.ErrorCode = protocol.CodeBadRequest // what a refusal here is, bar admission
	for run := req.Form; len(run) > 0; {
		e, rest, err := v3.NextEntry(run)
		o, name := session, string(e.Owner)
		switch {
		case err != nil:
			return err
		case session != 0 && name != "" && name != w.names[session]:
			return fmt.Errorf("server: a form imported for %q holds %q's part", w.names[session], name)
		case name != "":
			if o, err = w.ownerOf(name); err != nil {
				resp.ErrorCode = protocol.CodeAdmission
				return err
			}
		}
		if !slices.Contains(owners, o) {
			owners = append(owners, o)
		}
		switch run = rest; e.Tag {
		case v3.EntryCore:
			cores = append(cores, coreEntry{msg: e.Core, owner: o})
		case v3.EntryLive, v3.EntryMemory:
			sr, err := w.readRecord(e)
			if err != nil {
				return err
			}
			sr.Owner = o
			recs[e.Tag-v3.EntryLive] = append(recs[e.Tag-v3.EntryLive], sr)
		default:
			return fmt.Errorf("server: a session form holds no entry of tag %#x", e.Tag)
		}
	}
	resp.ErrorCode = protocol.CodeOK
	owners = slices.DeleteFunc(owners, func(o uint8) bool { return o == 0 })
	for _, o := range owners {
		w.drop(o)
	}
	err := w.place(cores, recs, resp)
	w.cur = session
	w.router.SetOwner(session)
	if err != nil {
		for _, o := range owners {
			w.drop(o)
		}
	}
	return err
}

// place is sessionImport's placing half: the cores, whose Implement
// replays the paths it shares with the records, then the records.
func (w *Worker) place(cores []coreEntry, recs [2][]core.SeqRecord, resp *Response) error {
	w.router.LearnPaths(recs[0])
	for _, c := range cores {
		w.cur = c.owner
		w.router.SetOwner(w.cur)
		if err := w.coreNew(&c.msg, resp); err != nil {
			return err
		}
	}
	// The cores' ports exist now: the records that name them resolve,
	// each through its owner's cores.
	for _, sr := range slices.Concat(recs[0], recs[1]) {
		w.cur = sr.Owner
		for i, e := range sr.Ends {
			if ref, ok := e.(portRef); ok {
				var err error
				if sr.Ends[i], err = w.endpoint(&EndPointMsg{Port: protocol.PortRefMsg(ref), IsPort: true}); err != nil {
					resp.ErrorCode = protocol.CodeBadRequest
					return err
				}
			}
		}
	}
	return w.router.Import(recs[0], recs[1])
}

// portRef stands for a port in a record read off a form until the form's
// cores exist.
type portRef protocol.PortRefMsg

func (portRef) Pins() []core.Pin { return nil }

// readRecord reads a form's record entry into the router's record,
// checking every wire. Its pins are the At pins, with its endpoints as
// Ends, or else its endpoints, each a pin.
func (w *Worker) readRecord(e v3.Entry) (sr core.SeqRecord, err error) {
	r, bad := v3.NewReader(e.Record), false
	wire := func(x int) arch.Wire {
		bad = bad || x < 0 || x >= w.js.Dev.A.WireCount()
		return arch.Wire(x)
	}
	pin := func() core.Pin {
		row, col, x := r.Pin()
		return core.NewPin(row, col, wire(x))
	}
	pips := func() (out []device.PIP) {
		for n := r.Count(); n > 0; n-- {
			row, col, from, to := r.Pip()
			out = append(slices.Grow(out, n), device.PIP{Row: row, Col: col, From: wire(from), To: wire(to)})
		}
		return out
	}
	sr.Seq, sr.Kind = e.Seq, core.RecordKind(r.Byte())
	ends := make([]core.EndPoint, 0, 2)
	for i, n := 0, 1; i < n; i++ {
		if ref, port := r.End(); port {
			ends = append(ends, portRef(ref))
		} else {
			ends = append(ends, pin())
		}
		if i == 0 {
			n += r.Count()
		}
	}
	sr.Path = pips()
	var pins []core.Pin
	for n := r.Count(); n > 0; n-- {
		pins = append(slices.Grow(pins, n), pin())
	}
	sr.Home = pips()
	switch {
	case r.Err() != nil:
		return sr, r.Err()
	case bad:
		return sr, fmt.Errorf("server: record %d names a wire outside the architecture", e.Seq)
	case pins != nil:
		sr.Ends = ends
	default:
		for _, end := range ends {
			p, ok := end.(core.Pin)
			if !ok {
				return sr, fmt.Errorf("server: record %d names a port but no pins", e.Seq)
			}
			pins = append(slices.Grow(pins, len(ends)), p)
		}
	}
	sr.Source, sr.Sinks = pins[0], pins[1:]
	return sr, nil
}

// drop takes everything owner o holds off this worker: its cores, newest
// first, then whatever records it still has, live or remembered.
func (w *Worker) drop(o uint8) {
	list := w.coreList(func(e *coreEntry) bool { return e.owner == o })
	for i := len(list) - 1; i >= 0; i-- {
		e := list[i]
		if e.c.Implemented() {
			_ = e.c.Remove(w.router)
		}
		delete(w.cores, coreKey{o, e.msg.Name})
		for _, g := range e.groups {
			for _, p := range e.c.Ports(g) {
				delete(w.ports, p)
			}
		}
	}
	w.touched = slices.DeleteFunc(w.touched, func(e *coreEntry) bool { return e.owner == o })
	w.router.DropOwner(o)
	delete(w.pending, o)
	w.dropped = append(w.dropped, o)
}
