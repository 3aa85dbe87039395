package server

import (
	"cmp"
	"context"
	"fmt"
	"maps"
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
		buf, _ = v3.AppendCoreEntry(buf, &e.msg)
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
// by core, group and index. A record with a port no request can name (an
// inner core's) goes as its pins, or, remembered, not at all: no request
// can Reconnect it.
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
	r := &w.rec
	r.Seq, r.Owner, r.Kind = sr.Seq, w.names[sr.Owner], uint8(sr.Kind)
	pin := func(i int) protocol.PinMsg { // the i-th pin as recorded, the source's first
		if i == 0 {
			return wirePin(sr.Source)
		}
		return wirePin(sr.Sinks[i-1])
	}
	n := 1 + len(sr.Sinks)
	if ends != nil {
		n = len(ends)
	}
	// The endpoints point into w.pins, sized before the first pointer.
	w.pins = append(w.pins[:0], make([]protocol.PinMsg, n)...)
	r.Sinks = append(r.Sinks[:0], make([]protocol.EndPointMsg, n-1)...)
	r.At = r.At[:0]
	for i := 0; i < n; i++ {
		ep := &r.Source
		if i > 0 {
			ep = &r.Sinks[i-1]
		}
		*ep = protocol.EndPointMsg{Pin: &w.pins[i]}
		if ends == nil {
			w.pins[i] = pin(i)
		} else if p, ok := ends[i].(*core.Port); ok {
			ref := w.ports[p]
			*ep = protocol.EndPointMsg{Port: &ref}
		} else {
			w.pins[i] = wirePin(ends[i].(core.Pin))
		}
	}
	for i := 0; ends != nil && i <= len(sr.Sinks); i++ {
		r.At = append(r.At, pin(i))
	}
	r.Pips, r.Home = pipMsgs(r.Pips[:0], sr.Path), pipMsgs(r.Home[:0], sr.Home)
	dst, _ = v3.AppendRecordEntry(dst, memory, r)
	return dst
}

func wirePin(p core.Pin) protocol.PinMsg {
	return protocol.PinMsg{Row: p.Row, Col: p.Col, Wire: int(p.W)}
}

func pipMsgs(dst []protocol.PipMsg, pips []device.PIP) []protocol.PipMsg {
	for _, p := range pips {
		dst = append(dst, protocol.PipMsg{Row: p.Row, Col: p.Col, From: int(p.From), To: int(p.To)})
	}
	return dst
}

// Export returns the form of every session on the worker as its router
// holds it now: what a journal its deltas fed holds too.
func (w *Worker) Export(ctx context.Context) (form protocol.SessionMsg, err error) {
	err = w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
		live, mem := r.Export()
		buf := w.encode(nil, nil, w.coreList(nil), core.Delta{Upserted: live, Remembered: mem})
		return v3.DecodeSession(buf, &form)
	})
	return form, err
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
// all or nothing: their cores, live records and memory come off, then the
// form's cores are made in creation order as they are described now, its
// live records adopted replay-first in sequence order, and its memory
// filed under its ports. An entry with no owner is the request's session's,
// and a form imported for a session holds no other's. A step that fails
// takes off everything the import placed.
func (w *Worker) sessionImport(req *Request, resp *Response) error {
	f, session := req.Form, w.cur
	if f == nil {
		resp.ErrorCode = protocol.CodeBadRequest
		return fmt.Errorf("server: session_import without a form")
	}
	var owners []uint8
	own := func(name string) (o uint8, err error) {
		switch {
		case name == "":
			o = session
		case session != 0 && name != w.names[session]:
			resp.ErrorCode = protocol.CodeBadRequest
			return 0, fmt.Errorf("server: a form imported for %q holds %q's part", w.names[session], name)
		default:
			if o, err = w.ownerOf(name); err != nil {
				resp.ErrorCode = protocol.CodeAdmission
				return 0, err
			}
		}
		if o != 0 && !slices.Contains(owners, o) {
			owners = append(owners, o)
		}
		return o, nil
	}
	own("")
	coreOwners := make([]uint8, len(f.Cores))
	var recs [2][]core.SeqRecord
	for i, c := range f.Cores {
		var err error
		if coreOwners[i], err = own(c.Owner); err != nil {
			return err
		}
	}
	for i, msgs := range [2][]protocol.RecordMsg{f.Live, f.Memory} {
		for j := range msgs {
			sr, err := w.recordOf(&msgs[j])
			if err != nil {
				resp.ErrorCode = protocol.CodeBadRequest
				return err
			}
			if sr.Owner, err = own(msgs[j].Owner); err != nil {
				return err
			}
			recs[i] = append(recs[i], sr)
		}
	}
	for _, o := range owners {
		w.drop(o)
	}
	err := w.place(f, coreOwners, recs, resp)
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
func (w *Worker) place(f *protocol.SessionMsg, coreOwners []uint8, recs [2][]core.SeqRecord, resp *Response) error {
	w.router.LearnPaths(recs[0])
	for i := range f.Cores {
		msg := f.Cores[i]
		w.cur = coreOwners[i]
		w.router.SetOwner(w.cur)
		if err := w.coreNew(&msg, resp); err != nil {
			return err
		}
	}
	// The cores' ports exist now: the records that name them resolve.
	for i, msgs := range [2][]protocol.RecordMsg{f.Live, f.Memory} {
		for j, m := range msgs {
			if len(m.At) > 0 {
				ends, err := w.endpoints(append([]protocol.EndPointMsg{m.Source}, m.Sinks...))
				if err != nil {
					resp.ErrorCode = protocol.CodeBadRequest
					return err
				}
				recs[i][j].Ends = ends
			}
		}
	}
	return w.router.Import(recs[0], recs[1])
}

// recordOf converts a form's record to the router's, checking every wire.
// Its pins are At, or the endpoints when every one is a pin.
func (w *Worker) recordOf(m *protocol.RecordMsg) (core.SeqRecord, error) {
	sr := core.SeqRecord{Seq: m.Seq}
	sr.Kind = core.RecordKind(m.Kind)
	pins := m.At
	for i := 0; len(m.At) == 0 && i <= len(m.Sinks); i++ {
		ep := &m.Source
		if i > 0 {
			ep = &m.Sinks[i-1]
		}
		if ep.Pin == nil {
			return sr, fmt.Errorf("server: record %d names a port but no pins", m.Seq)
		}
		pins = append(pins, *ep.Pin)
	}
	wires := func(ws ...int) error {
		if slices.ContainsFunc(ws, func(x int) bool { return x < 0 || x >= w.js.Dev.A.WireCount() }) {
			return fmt.Errorf("server: record %d names a wire outside the architecture", m.Seq)
		}
		return nil
	}
	for i, p := range pins {
		if err := wires(p.Wire); err != nil {
			return sr, err
		}
		if pin := core.NewPin(p.Row, p.Col, arch.Wire(p.Wire)); i == 0 {
			sr.Source = pin
		} else {
			sr.Sinks = append(sr.Sinks, pin)
		}
	}
	for _, p := range slices.Concat(m.Pips, m.Home) {
		if err := wires(p.From, p.To); err != nil {
			return sr, err
		}
		pip := device.PIP{Row: p.Row, Col: p.Col, From: arch.Wire(p.From), To: arch.Wire(p.To)}
		if len(sr.Path) < len(m.Pips) {
			sr.Path = append(sr.Path, pip)
		} else {
			sr.Home = append(sr.Home, pip)
		}
	}
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
		delete(w.cores, e.msg.Name)
		maps.DeleteFunc(w.ports, func(_ *core.Port, ref protocol.PortRefMsg) bool { return ref.Core == e.msg.Name })
	}
	w.touched = slices.DeleteFunc(w.touched, func(e *coreEntry) bool { return e.owner == o })
	w.router.DropOwner(o)
	delete(w.pending, o)
	w.dropped = append(w.dropped, o)
}
