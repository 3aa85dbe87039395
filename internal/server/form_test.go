package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/oracle"
	"repro/internal/server/journal"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// testRecord is a form's record entry as a test writes or reads one: its
// endpoints as routed, its path, the pins it was routed at when an endpoint
// is a port, and its way home.
type testRecord struct {
	memory bool
	owner  string
	seq    uint64
	kind   byte
	ends   []EndPointMsg
	pips   []protocol.PipMsg
	at     []protocol.PinMsg
	home   []protocol.PipMsg
}

func (r *testRecord) append(run []byte) []byte {
	run, at := v3.AppendRecordEntry(run, r.memory, r.owner, r.seq)
	run = append(run, r.kind)
	for i, ep := range r.ends {
		if ep.IsPort {
			run = v3.AppendPortEnd(run, ep.Port)
		} else {
			run = v3.AppendPinEnd(run, ep.Pin.Row, ep.Pin.Col, ep.Pin.Wire)
		}
		if i == 0 {
			run = v3.AppendCount(run, len(r.ends)-1)
		}
	}
	pips := func(ps []protocol.PipMsg) {
		run = v3.AppendCount(run, len(ps))
		for _, p := range ps {
			run = v3.AppendPip(run, p.Row, p.Col, p.From, p.To)
		}
	}
	pips(r.pips)
	run = v3.AppendCount(run, len(r.at))
	for _, p := range r.at {
		run = v3.AppendPin(run, p.Row, p.Col, p.Wire)
	}
	pips(r.home)
	return v3.EndRecordEntry(run, at)
}

func readTestRecord(t testing.TB, e v3.Entry) testRecord {
	t.Helper()
	r := v3.NewReader(e.Record)
	rec := testRecord{memory: e.Tag == v3.EntryMemory, owner: string(e.Owner), seq: e.Seq, kind: r.Byte()}
	for i, n := 0, 1; i < n; i++ {
		if ref, port := r.End(); port {
			rec.ends = append(rec.ends, EndPointMsg{Port: ref, IsPort: true})
		} else {
			row, col, wire := r.Pin()
			rec.ends = append(rec.ends, pinMsg(row, col, arch.Wire(wire)))
		}
		if i == 0 {
			n += r.Count()
		}
	}
	pips := func() (out []protocol.PipMsg) {
		for n := r.Count(); n > 0; n-- {
			row, col, from, to := r.Pip()
			out = append(out, protocol.PipMsg{Row: row, Col: col, From: from, To: to})
		}
		return out
	}
	rec.pips = pips()
	for n := r.Count(); n > 0; n-- {
		row, col, wire := r.Pin()
		rec.at = append(rec.at, protocol.PinMsg{Row: row, Col: col, Wire: wire})
	}
	rec.home = pips()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// spans splits a run into its entries' bytes.
func spans(t testing.TB, run []byte) (out [][]byte) {
	t.Helper()
	for len(run) > 0 {
		_, rest, err := v3.NextEntry(run)
		if err != nil {
			t.Fatal(err)
		}
		out, run = append(out, run[:len(run)-len(rest)]), rest
	}
	return out
}

func newTestWorker(t testing.TB) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Name: "dev", Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); <-w.Done() })
	return w
}

// seedSession gives session s of a 16×24 worker two cores, 26 live records
// (two off the multiplier's ports, one off the register's) and one record
// in port memory, and returns the worker's form.
func seedSession(t testing.TB, w *Worker) []byte {
	t.Helper()
	ctx := context.Background()
	must := func(req *Request) {
		t.Helper()
		req.Session = "s"
		if resp := w.Submit(ctx, req); resp.Err != "" {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
	}
	port := func(c, g string, i int) EndPointMsg {
		return EndPointMsg{Port: protocol.PortRefMsg{Core: c, Group: g, Index: i}, IsPort: true}
	}
	route := func(src EndPointMsg, sinks ...EndPointMsg) *Request {
		return &Request{Op: "route", Source: &src, Sinks: sinks}
	}
	k := uint64(3)
	must(&Request{Op: "core_new", Core: &protocol.CoreMsg{Name: "mul", Kind: "constmul", Row: 3, Col: 14, K: &k, KBits: 2}})
	must(&Request{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 12, Col: 18, Bits: 2}})
	for i := 0; i < 3; i++ {
		must(route(port("mul", "p", i), pinMsg(5+i, 20, arch.S1F4)))
	}
	must(route(port("reg", "q", 0), pinMsg(14, 14, arch.S0G4)))
	outs := []arch.Wire{arch.S0X, arch.S0Y, arch.S1X}
	ins := []arch.Wire{arch.S0F1, arch.S0G1, arch.S1F1, arch.S1G1}
	for r, out := range outs {
		for i := 0; i < 8; i++ {
			must(route(pinMsg(1+i, 2, out), pinMsg(2+i, 9+r, ins[i%4])))
		}
	}
	must(&Request{Op: "unroute", Source: ptr(port("mul", "p", 2))})
	run, err := w.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func ptr(m EndPointMsg) *EndPointMsg { return &m }

// TestImportRejectsBadForms: session_import takes a form from the wire.
// Endpoints off the array, wires outside the architecture, a record with no
// sinks, a port of no core, a core that does not fit, another session's
// part — each is refused as a request or routing error, leaves the worker
// serving, and places nothing.
func TestImportRejectsBadForms(t *testing.T) {
	w := newTestWorker(t)
	ctx := context.Background()
	live := func(src EndPointMsg, sinks []EndPointMsg, pips ...protocol.PipMsg) []byte {
		r := testRecord{seq: 1, ends: append([]EndPointMsg{src}, sinks...), pips: pips}
		return r.append(nil)
	}
	sink := []EndPointMsg{pinMsg(4, 5, arch.S0F3)}
	memory := testRecord{memory: true, seq: 1, ends: append([]EndPointMsg{{Port: protocol.PortRefMsg{Core: "x", Group: "q"}, IsPort: true}}, sink...),
		at: []protocol.PinMsg{{Row: 1, Col: 2, Wire: int(arch.S1YQ)}, {Row: 4, Col: 5, Wire: int(arch.S0F3)}}}
	coreForm := func(owner string, c protocol.CoreMsg) []byte {
		run, _ := v3.AppendCoreEntry(nil, owner, &c)
		return run
	}
	forms := map[string][]byte{
		"source off the array": live(pinMsg(1000, 2, arch.S1YQ), sink),
		"wire outside":         live(pinMsg(1, 2, arch.S1YQ), sink, protocol.PipMsg{Row: 1, Col: 2, From: 1 << 20, To: 2}),
		"no sinks":             live(pinMsg(1, 2, arch.S1YQ), nil),
		"port of no core":      memory.append(nil),
		"core off the array":   coreForm("", protocol.CoreMsg{Name: "r", Kind: "register", Row: 100, Col: 2, Bits: 4}),
		"another's part":       coreForm("other", protocol.CoreMsg{Name: "r", Kind: "register", Row: 4, Col: 16, Bits: 4}),
	}
	for name, f := range forms {
		resp := w.Submit(ctx, &Request{Op: "session_import", Session: "s", Form: f})
		if resp.Err == "" || resp.ErrorCode == protocol.CodeInternal {
			t.Errorf("%s: %q (%s), want a request or routing error", name, resp.Err, resp.ErrorCode)
		}
	}
	var pips, conns int
	if err := w.Do(ctx, func(r *core.Router, js *jbits.Session) error {
		pips, conns = js.Dev.OnPIPCount(), r.ConnectionCount()
		return nil
	}); err != nil || pips != 0 || conns != 0 {
		t.Fatalf("after the refused imports: %d PIPs on, %d records, %v", pips, conns, err)
	}
}

// claimElsewhere returns the form of a worker that routed (5,5)S0X →
// (5,9)S0F1, its one record's sink rewritten to sink.
func claimElsewhere(t testing.TB, sink EndPointMsg) []byte {
	t.Helper()
	w := newTestWorker(t)
	ctx := context.Background()
	if resp := w.Submit(ctx, routeReq("s", pinMsg(5, 5, arch.S0X), pinMsg(5, 9, arch.S0F1))); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	run, err := w.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e, rest, err := v3.NextEntry(run)
	if err != nil || len(rest) != 0 || e.Tag != v3.EntryLive {
		t.Fatalf("the form of one route: %v, %d bytes after its first entry", err, len(rest))
	}
	rec := readTestRecord(t, e)
	rec.ends[1] = sink
	return rec.append(nil)
}

// TestImportRefusesUnreachedSinks: a record whose path does not reach the
// sink it claims — a sink off the array, a sink on it that nothing in the
// form drives — is refused as a bad request before anything is placed or
// learned: no PIP is on, and a route of the claimed endpoints afterwards
// searches (a cache miss), where a learned path would have replayed.
func TestImportRefusesUnreachedSinks(t *testing.T) {
	ctx := context.Background()
	src := pinMsg(5, 5, arch.S0X)
	for _, sink := range []EndPointMsg{pinMsg(9, -13, arch.S1G1), pinMsg(7, 3, arch.S1G1)} {
		w := newTestWorker(t)
		resp := w.Submit(ctx, &Request{Op: "session_import", Session: "s", Form: claimElsewhere(t, sink)})
		if resp.ErrorCode != protocol.CodeBadRequest {
			t.Errorf("sink %+v: import answered %q (%s), want a bad request", sink.Pin, resp.Err, resp.ErrorCode)
		}
		var before core.Stats
		if err := w.Do(ctx, func(r *core.Router, js *jbits.Session) error {
			if n := js.Dev.OnPIPCount(); n != 0 {
				t.Errorf("sink %+v: the refused import left %d PIPs on", sink.Pin, n)
			}
			before = r.Stats()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		routed := w.Submit(ctx, routeReq("s", src, sink)).Err == ""
		if err := w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
			d := r.Stats().Sub(before)
			if d.CacheHits != 0 || routed && d.CacheMisses == 0 {
				t.Errorf("sink %+v: a route of the claimed endpoints counted %d hits, %d misses; want 0 hits and, routed, a miss",
					sink.Pin, d.CacheHits, d.CacheMisses)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sink.Pin.Col >= 0 && !routed {
			t.Errorf("sink %+v: the route of the claimed endpoints failed", sink.Pin)
		}
	}
}

// TestImportKeepsRememberedBranch: a remembered record is often part of a
// net. Route a pin, grow the net to a core's input port, reverse-unroute
// the port and unroute the net: the form holds only the port's memory,
// whose path starts at a branch point no record in the form drives. It
// imports, and the core's replacement reconnects the port from the source.
func TestImportKeepsRememberedBranch(t *testing.T) {
	ctx := context.Background()
	w := newTestWorker(t)
	src := pinMsg(5, 5, arch.S0X)
	d0 := EndPointMsg{Port: protocol.PortRefMsg{Core: "reg", Group: "d"}, IsPort: true}
	for _, req := range []*Request{
		{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 12, Col: 18, Bits: 2}},
		routeReq("s", src, pinMsg(5, 9, arch.S0F1)),
		routeReq("s", src, d0),
		{Op: "reverse_unroute", Source: &d0},
		{Op: "unroute", Source: &src},
	} {
		req.Session = "s"
		if resp := w.Submit(ctx, req); resp.Err != "" {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
	}
	run, err := w.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var branch *testRecord
	for _, s := range spans(t, run) {
		if e, _, _ := v3.NextEntry(s); e.Tag == v3.EntryMemory {
			rec := readTestRecord(t, e)
			branch = &rec
		}
	}
	if branch == nil || len(branch.pips) == 0 || branch.pips[0].From == src.Pin.Wire && branch.pips[0].Row == 5 && branch.pips[0].Col == 5 {
		t.Fatalf("want the port's memory to start past the net's source, got %+v", branch)
	}
	spare := newTestWorker(t)
	if resp := spare.Submit(ctx, &Request{Op: "session_import", Session: "s", Form: run}); resp.Err != "" {
		t.Fatalf("import: %s (%s)", resp.Err, resp.ErrorCode)
	}
	replace := &Request{Op: "core_replace", Session: "s", Core: &protocol.CoreMsg{Name: "reg", Row: 9, Col: 16}}
	if resp := spare.Submit(ctx, replace); resp.Err != "" {
		t.Fatalf("core_replace after the import: %s", resp.Err)
	}
	resp := spare.Submit(ctx, &Request{Op: "trace", Session: "s", Source: &src})
	if resp.Err != "" || resp.Net == nil || len(resp.Net.Sinks) != 1 {
		t.Errorf("the source after the replacement traces %+v (%q), want the port's one pin", resp.Net, resp.Err)
	}
}

// TestImportIsAllOrNothing: a real form broken two ways — cut inside any
// entry, or any one record with a wire past the architecture — is refused
// as a bad request before anything comes off, so the worker it was
// imported onto exports what it did before, byte for byte.
func TestImportIsAllOrNothing(t *testing.T) {
	w := newTestWorker(t)
	ctx := context.Background()
	run := seedSession(t, w)
	entries := spans(t, run)
	var bad [][]byte
	off := 0
	for _, e := range entries {
		for cut := off + 1; cut < off+len(e); cut++ {
			bad = append(bad, run[:cut])
		}
		off += len(e)
	}
	cuts, records := len(bad), 0
	for i, raw := range entries {
		e, _, _ := v3.NextEntry(raw)
		if e.Tag == v3.EntryCore {
			continue
		}
		records++
		rec := readTestRecord(t, e)
		if again := rec.append(nil); !bytes.Equal(again, raw) {
			t.Fatalf("record %d does not read back as written", e.Seq)
		}
		if len(rec.at) > 0 {
			rec.at[0].Wire = w.js.Dev.A.WireCount()
		} else {
			rec.ends[0].Pin.Wire = w.js.Dev.A.WireCount()
		}
		var broken []byte
		for j, other := range entries {
			if j == i {
				other = rec.append(nil)
			}
			broken = append(broken, other...)
		}
		bad = append(bad, broken)
	}
	if records < 21 || cuts < len(run)-len(entries) {
		t.Fatalf("%d records, %d cuts in a run of %d bytes", records, cuts, len(run))
	}
	for i, f := range bad {
		resp := w.Submit(ctx, &Request{Op: "session_import", Session: "s", Form: f})
		if resp.ErrorCode != protocol.CodeBadRequest {
			t.Fatalf("bad form %d of %d: %q (%s), want a bad request", i, len(bad), resp.Err, resp.ErrorCode)
		}
		if now, err := w.Export(ctx); err != nil || !bytes.Equal(now, run) {
			t.Fatalf("bad form %d of %d changed the worker (%v)", i, len(bad), err)
		}
	}
}

// FuzzSessionImport imports arbitrary runs onto a fresh worker and audits
// what lands (importAudit).
func FuzzSessionImport(f *testing.F) {
	for _, form := range importSeeds(f) {
		f.Add(form)
	}
	f.Fuzz(func(t *testing.T, run []byte) {
		if err := importAudit(t, run); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionImportSeeded runs FuzzSessionImport's body over seeded
// mutations of its seed forms on every test run — a few bits flipped, bytes
// inserted, the run cut short — the same inputs each time, so the import
// checks are held past the seeds the fuzzer starts from.
func TestSessionImportSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k, seed := range importSeeds(t) {
		for i := 0; i < 500; i++ {
			run := slices.Clone(seed)
			for n := 1 + rng.Intn(3); n > 0 && len(run) > 0; n-- {
				switch at := rng.Intn(len(run)); rng.Intn(3) {
				case 0:
					run[at] ^= 1 << rng.Intn(8)
				case 1:
					run = slices.Insert(run, at, byte(rng.Intn(256)))
				default:
					run = run[:at]
				}
			}
			if err := importAudit(t, run); err != nil {
				t.Fatalf("seed form %d, mutation %d (%x): %v", k, i, run, err)
			}
		}
	}
}

// importSeeds are FuzzSessionImport's seed forms: a worker's own form, a
// hand-built run of a core with a live and a remembered record, and two
// forms whose record claims a sink elsewhere, once off the array.
func importSeeds(t testing.TB) [][]byte {
	form, _ := v3.AppendCoreEntry(nil, "d", &protocol.CoreMsg{Name: "r", Kind: "register", Row: 1, Col: 2, Bits: 2})
	net := []EndPointMsg{pinMsg(1, 2, 3), pinMsg(4, 5, 6)}
	for _, r := range []testRecord{
		{owner: "d", seq: 3, ends: net, pips: []protocol.PipMsg{{Row: 1, Col: 2, From: 3, To: 4}}},
		{memory: true, owner: "d", seq: 5, ends: []EndPointMsg{{Port: protocol.PortRefMsg{Core: "r", Group: "q"}, IsPort: true}, net[1]},
			pips: []protocol.PipMsg{{Row: 1, Col: 2, From: 3, To: 4}}, at: []protocol.PinMsg{net[0].Pin, net[1].Pin}},
	} {
		form = r.append(form)
	}
	return [][]byte{
		seedSession(t, newTestWorker(t)),
		form,
		claimElsewhere(t, pinMsg(9, -13, arch.S1G1)),
		claimElsewhere(t, pinMsg(7, 3, arch.S1G1)),
	}
}

// importAudit imports run onto a fresh worker. The worker must not panic or
// answer an internal error, and must either refuse the form with nothing
// on, or place it so that the device passes a strict oracle audit.
func importAudit(t testing.TB, run []byte) error {
	w, err := NewWorker(WorkerConfig{Name: "dev", Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); <-w.Done() }()
	ctx := context.Background()
	resp := w.Submit(ctx, &Request{Op: "session_import", Form: run})
	if resp.ErrorCode == protocol.CodeInternal {
		return fmt.Errorf("import answered %s: %s", resp.ErrorCode, resp.Err)
	}
	return w.Do(ctx, func(r *core.Router, js *jbits.Session) error {
		if resp.Err != "" {
			if n := js.Dev.OnPIPCount(); n != 0 {
				return fmt.Errorf("refused import (%s) left %d PIPs on", resp.Err, n)
			}
			return nil
		}
		full, err := js.Dev.FullConfig()
		if err != nil {
			return err
		}
		if err := oracle.Audit(js.Dev.A, full, r.OracleClaims(), true); err != nil {
			return fmt.Errorf("placed form fails the audit: %w", err)
		}
		return nil
	})
}

// TestMoveAllocations counts what a 50-net move allocates between two
// journals: the source journal's form, the session_import request encoded
// and decoded, and the import on the target worker. The form travels as
// bytes, so that is about 1 145 allocations (17 + 2 + 1 + 1 125), 1 322
// under the race detector; a hop that decodes the form into structs and
// encodes it again costs some 200 more each way.
func TestMoveAllocations(t *testing.T) {
	ctx := context.Background()
	j := journal.New()
	src, err := NewWorker(WorkerConfig{Name: "src", Rows: 16, Cols: 24, JournalHook: func(d []byte) { _ = j.Apply(d) }})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { src.Close(); <-src.Done() }()
	outs := []arch.Wire{arch.S0X, arch.S0Y, arch.S1X, arch.S1Y}
	ins := []arch.Wire{arch.S0F1, arch.S0G1, arch.S1F1, arch.S1G1}
	for i, nets := 0, 0; nets < 50; i++ {
		s, d := pinMsg(1+i%14, 1+(i/14)%22, outs[(i/56)%4]), pinMsg(1+(i+3)%14, 1+(i/14+4)%22, ins[i%4])
		if resp := src.Submit(ctx, routeReq("s", s, d)); resp.Err == "" {
			nets++
		}
	}
	dst := newTestWorker(t)
	form, live := j.Form("s")
	req := &Request{ID: 1, Op: "session_import", Session: "s", Form: form}
	frame, err := v3.AppendRequest(nil, req)
	h, _ := v3.ParseHeader(frame)
	if err != nil || live != 50 {
		t.Fatalf("a form of %d live records: %v", live, err)
	}
	allocs := []float64{
		testing.AllocsPerRun(20, func() { j.Form("s") }),
		testing.AllocsPerRun(20, func() { _, _ = v3.AppendRequest(nil, req) }),
		testing.AllocsPerRun(20, func() { _ = v3.DecodeRequest(h, frame[v3.HeaderSize:], &Request{}, nil) }),
		testing.AllocsPerRun(20, func() {
			if resp := dst.Submit(ctx, req); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}),
	}
	if total := allocs[0] + allocs[1] + allocs[2] + allocs[3]; total > 1500 {
		t.Errorf("a 50-net move allocates %.0f (form, encode, decode, import: %v), want at most 1 500", total, allocs)
	}
}

// newJournaledWorker is newTestWorker with a journal its deltas feed, as a
// fleet slot's is.
func newJournaledWorker(t testing.TB) (*Worker, *journal.Journal) {
	t.Helper()
	j := journal.New()
	w, err := NewWorker(WorkerConfig{Name: "dev", Rows: 16, Cols: 24, JournalHook: func(d []byte) { _ = j.Apply(d) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); <-w.Done() })
	return w, j
}

// readback returns the worker's full configuration.
func readback(t testing.TB, w *Worker) (full []byte) {
	t.Helper()
	if err := w.Do(context.Background(), func(_ *core.Router, js *jbits.Session) (err error) {
		full, err = js.Dev.FullConfig()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return full
}

// TestReplaceOfSlotmateCoreRefused: a core name resolves through the
// requesting session's cores only. Session b's core_replace of session s's
// register is refused as naming no core of b's, and s's configuration and
// form stay as they were.
func TestReplaceOfSlotmateCoreRefused(t *testing.T) {
	w, j := newJournaledWorker(t)
	seedSession(t, w)
	config := readback(t, w)
	form, _ := j.Form("s")
	resp := w.Submit(context.Background(), &Request{Op: "core_replace", Session: "b",
		Core: &protocol.CoreMsg{Name: "reg", Row: 2, Col: 4}})
	if resp.ErrorCode != protocol.CodeBadRequest {
		t.Errorf("b's core_replace of s's reg: %q (%s), want a bad request", resp.Err, resp.ErrorCode)
	}
	if !bytes.Equal(readback(t, w), config) {
		t.Error("the refused replace changed the configuration")
	}
	if now, _ := j.Form("s"); !bytes.Equal(now, form) {
		t.Error("the refused replace changed s's form")
	}
}

// TestImportBesideSlotmateCore: session t's form, holding a register named
// as session s's is, imports onto the worker that holds s — twice, the
// second dropping the first — and each session's port then resolves to its
// own register, s's form unchanged. The whole worker's form, two cores of
// one name in it, imports onto a fresh worker (a failover) the same way:
// each record's ports resolve through its own owner's cores.
func TestImportBesideSlotmateCore(t *testing.T) {
	ctx := context.Background()
	w, j := newJournaledWorker(t)
	seedSession(t, w)
	sForm, _ := j.Form("s")

	port := EndPointMsg{Port: protocol.PortRefMsg{Core: "reg", Group: "q", Index: 0}, IsPort: true}
	other := newTestWorker(t)
	for _, req := range []*Request{
		{Op: "core_new", Core: &protocol.CoreMsg{Name: "reg", Kind: "register", Row: 4, Col: 2, Bits: 2}},
		{Op: "route", Source: ptr(port), Sinks: []EndPointMsg{pinMsg(10, 4, arch.S0F3)}},
	} {
		req.Session = "t"
		if resp := other.Submit(ctx, req); resp.Err != "" {
			t.Fatalf("%s on t: %s", req.Op, resp.Err)
		}
	}
	tForm, err := other.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resp := w.Submit(ctx, &Request{Op: "session_import", Session: "t", Form: tForm}); resp.Err != "" {
			t.Fatalf("import %d of t beside s's reg: %s (%s)", i, resp.Err, resp.ErrorCode)
		}
	}
	if now, _ := j.Form("s"); !bytes.Equal(now, sForm) {
		t.Error("importing t changed s's form")
	}
	all, err := w.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exported := journal.New()
	if err := exported.Apply(all); err != nil {
		t.Fatal(err)
	}
	if got, _ := exported.Form("s"); !bytes.Equal(got, sForm) {
		t.Error("after t's imports the worker exports s's part other than s's form: dropping t took s's port names")
	}
	spare := newTestWorker(t)
	if resp := spare.Submit(ctx, &Request{Op: "session_import", Form: all}); resp.Err != "" {
		t.Fatalf("importing both sessions onto a spare: %s (%s)", resp.Err, resp.ErrorCode)
	}
	sinks := map[string]protocol.PinMsg{"s": {Row: 14, Col: 14, Wire: int(arch.S0G4)}, "t": {Row: 10, Col: 4, Wire: int(arch.S0F3)}}
	for i, on := range []*Worker{w, spare} {
		for session, want := range sinks {
			resp := on.Submit(ctx, &Request{Op: "trace", Session: session, Source: ptr(port)})
			if resp.Err != "" || resp.Net == nil || len(resp.Net.Sinks) != 1 || resp.Net.Sinks[0].Pin != want {
				t.Errorf("worker %d: %s's reg.q[0] traces %+v (%q), want one sink at %+v", i, session, resp.Net, resp.Err, want)
			}
		}
	}
}

// TestEndpointOpsOnSlotmateNetRefused: an endpoint op acts only on nets the
// requesting session holds. On one slot, session b names session s's net
// by a raw pin — its source for unroute, trace and a grafting route, bus or
// batch, one of its sinks for the reverse ops — and each op is refused as a
// routing error that names neither s nor its net; s's configuration and
// form stay as they were, and b still routes from a pin of its own.
func TestEndpointOpsOnSlotmateNetRefused(t *testing.T) {
	ctx := context.Background()
	w, j := newJournaledWorker(t)
	seedSession(t, w)
	config := readback(t, w)
	form, _ := j.Form("s")
	src, sink, free := pinMsg(1, 2, arch.S0X), pinMsg(2, 9, arch.S0F1), pinMsg(12, 3, arch.S1G2)
	for _, req := range []*Request{
		{Op: "unroute", Source: &src},
		{Op: "reverse_unroute", Source: &sink},
		{Op: "trace", Source: &src},
		{Op: "reverse_trace", Source: &sink},
		{Op: "route", Source: &src, Sinks: []EndPointMsg{free}},
		{Op: "bus", Sources: []EndPointMsg{src}, Sinks: []EndPointMsg{free}},
		{Op: "batch", Nets: []protocol.NetMsg{{Source: src, Sinks: []EndPointMsg{free}}}},
	} {
		req.Session = "b"
		resp := w.Submit(ctx, req)
		if resp.ErrorCode != protocol.CodeRoute || resp.Err != errForeignNet.Error() || resp.Net != nil {
			t.Errorf("b's %s on s's net: %q (%s), want %q", req.Op, resp.Err, resp.ErrorCode, errForeignNet)
		}
		if !bytes.Equal(readback(t, w), config) {
			t.Fatalf("b's refused %s changed the configuration", req.Op)
		}
		if now, _ := j.Form("s"); !bytes.Equal(now, form) {
			t.Fatalf("b's refused %s changed s's form", req.Op)
		}
	}
	if resp := w.Submit(ctx, &Request{Op: "trace", Session: "s", Source: &src}); resp.Err != "" || resp.Net == nil {
		t.Errorf("s's trace of its own net: %q", resp.Err)
	}
	if resp := w.Submit(ctx, routeReq("b", pinMsg(12, 2, arch.S0X), free)); resp.Err != "" {
		t.Errorf("b's route from a pin of its own: %q", resp.Err)
	}
}
