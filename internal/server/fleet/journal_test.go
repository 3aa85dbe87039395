package fleet

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/jbits"
	"repro/internal/server"
	"repro/internal/server/protocol"
	v3 "repro/internal/server/protocol/v3"
)

// TestJournalEqualsSnapshot: the journal is fed each acknowledged op's delta
// and never sees the router whole, yet after every acknowledged op —
// routes, fanouts, a bus, cores placed and relocated under crossing nets,
// reverse unroutes that split records in place, unroutes, port nets taken
// down into port memory, a net detoured around a reservation (so it has a
// way home), ops that fail and are rolled back, ops whose push the board
// refuses — what it would hand a failover is exactly the worker's export:
// the cores, the live records, the remembered ones and their ways home,
// order included. A second session shares the slot, and each owner's form
// holds only its own. The slot is then killed mid-churn, and the same holds
// on the spare from the moment it takes over, before any client op reaches
// it.
func TestJournalEqualsSnapshot(t *testing.T) {
	c, err := New(Config{Boards: 1, Spares: 1, Rows: 16, Cols: 24})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() { _ = c.Shutdown(ctx) }()
	sl := c.slots[0]

	checks := 0
	form := func(owner string) []byte {
		got, live := sl.journal().Form(owner)
		if n := len(entries(t, got, v3.EntryLive)); n != live {
			t.Fatalf("the form of %q holds %d live records and counts %d", owner, n, live)
		}
		return got
	}
	check := func(what string) {
		t.Helper()
		_, w, _, _, _ := sl.current()
		want, err := w.Export(ctx)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := form(""); !bytes.Equal(got, want) {
			t.Fatalf("after %s the journal holds\n%x\nand the router\n%x", what, got, want)
		}
		for _, owner := range []string{"s", "t"} {
			var own []byte
			for _, e := range entries(t, want, 0) {
				if string(e.Owner) == owner {
					own = append(own, e.raw...)
				}
			}
			if got := form(owner); !bytes.Equal(got, own) {
				t.Fatalf("after %s the journal holds for %s\n%x\nand the router\n%x", what, owner, got, own)
			}
		}
		checks++
	}
	pin := func(r, c int, w arch.Wire) server.EndPointMsg {
		return server.EndPointMsg{Pin: protocol.PinMsg{Row: r, Col: c, Wire: int(w)}}
	}
	// do submits one op; an acknowledged one is followed by the comparison.
	do := func(what string, req *server.Request) *server.Response {
		t.Helper()
		if req.Session == "" {
			req.Session = "s"
		}
		resp := c.Submit(ctx, req)
		if resp.Err == "" {
			check(what)
		}
		return resp
	}
	must := func(what string, req *server.Request) {
		t.Helper()
		if resp := do(what, req); resp.Err != "" {
			t.Fatalf("%s: %s (%s)", what, resp.Err, resp.ErrorCode)
		}
	}
	route := func(src server.EndPointMsg, sinks ...server.EndPointMsg) *server.Request {
		return &server.Request{Op: "route", Source: &src, Sinks: sinks}
	}
	key := uint64(0)
	must("connect", &server.Request{Op: "connect", Key: &key})
	must("connect t", &server.Request{Op: "connect", Session: "t", Key: &key})

	outs := []arch.Wire{arch.S0X, arch.S0Y, arch.S1X, arch.S1Y}
	ins := []arch.Wire{arch.S0F1, arch.S0G1, arch.S1F1, arch.S1G1}
	churn := func(round int) {
		// Eight nets and a fanout, two of them on one source.
		for i := 0; i < 8; i++ {
			must("route", route(pin(1+i, 2, outs[round%4]), pin(2+i, 9+round%3, ins[i%4])))
		}
		must("same-source route", route(pin(1, 2, outs[round%4]), pin(4, 12, arch.S1G3)))
		must("fanout", route(pin(12, 3, arch.S0XQ), pin(13, 8, arch.S0F2), pin(10, 11, arch.S0G2), pin(14, 5, arch.S1F2)))
		// A bus, then the same bus again: the second fails on its first
		// bit, is rolled back, and is not acknowledged.
		bus := &server.Request{Op: "bus"}
		for i := 0; i < 3; i++ {
			bus.Sources = append(bus.Sources, pin(9+i, 16, arch.S0YQ))
			bus.Sinks = append(bus.Sinks, pin(9+i, 21, arch.S0F4))
		}
		must("bus", bus)
		if resp := do("bus again", &server.Request{Op: "bus", Sources: bus.Sources, Sinks: bus.Sinks}); resp.Err == "" {
			t.Fatal("a bus onto its own sinks was acknowledged")
		}
		// Records split in place, one of them down to nothing.
		for _, sink := range []server.EndPointMsg{pin(10, 11, arch.S0G2), pin(4, 12, arch.S1G3)} {
			must("reverse unroute", &server.Request{Op: "reverse_unroute", Source: &sink})
		}
		for i := 0; i < 8; i += 2 {
			src := pin(1+i, 2, outs[round%4])
			must("unroute", &server.Request{Op: "unroute", Source: &src})
		}
	}
	unchurn := func(round int) {
		for i := 1; i < 8; i += 2 {
			src := pin(1+i, 2, outs[round%4])
			must("unroute", &server.Request{Op: "unroute", Source: &src})
		}
		for _, src := range []server.EndPointMsg{pin(12, 3, arch.S0XQ), pin(9, 16, arch.S0YQ), pin(10, 16, arch.S0YQ), pin(11, 16, arch.S0YQ)} {
			must("unroute", &server.Request{Op: "unroute", Source: &src})
		}
	}

	churn(0)
	// A multiplier wired to pins, relocated twice under the live nets: its
	// port nets retire and come back as new records, crossing nets are
	// ripped and restored.
	k := uint64(3)
	must("core_new", &server.Request{Op: "core_new", Core: &protocol.CoreMsg{Name: "mul", Kind: "constmul", Row: 3, Col: 14, K: &k, KBits: 2}})
	for i := 0; i < 2; i++ {
		must("port route", route(server.EndPointMsg{Port: protocol.PortRefMsg{Core: "mul", Group: "p", Index: i}, IsPort: true}, pin(5+i, 20, arch.S1F4)))
	}
	for i, site := range [][2]int{{6, 13}, {3, 14}} {
		k := uint64(1 + i)
		must("core_replace", &server.Request{Op: "core_replace", Core: &protocol.CoreMsg{Name: "mul", Row: site[0], Col: site[1], K: &k}})
	}
	// Port memory: one port net loses a sink, the other goes whole; a
	// replace of the multiplier routes both back.
	must("reverse unroute of a port net", &server.Request{Op: "reverse_unroute", Source: ptr(pin(5, 20, arch.S1F4))})
	must("unroute of a port net", &server.Request{Op: "unroute", Source: &server.EndPointMsg{Port: protocol.PortRefMsg{Core: "mul", Group: "p", Index: 1}, IsPort: true}})
	if n := len(entries(t, form("s"), v3.EntryMemory)); n != 2 {
		t.Fatalf("port memory holds %d records, want 2", n)
	}
	must("core_replace from memory", &server.Request{Op: "core_replace", Core: &protocol.CoreMsg{Name: "mul", Row: 6, Col: 13}})
	if n := len(entries(t, form("s"), v3.EntryMemory)); n != 0 {
		t.Fatalf("port memory holds %d records after the replace, want 0", n)
	}
	must("reverse unroute of a port net again", &server.Request{Op: "reverse_unroute", Source: ptr(pin(5, 20, arch.S1F4))})
	// The second session: a register, a net off its port, a pin net.
	must("t core_new", &server.Request{Op: "core_new", Session: "t", Core: &protocol.CoreMsg{Name: "treg", Kind: "register", Row: 12, Col: 18, Bits: 2}})
	must("t port route", &server.Request{Op: "route", Session: "t", Source: &server.EndPointMsg{Port: protocol.PortRefMsg{Core: "treg", Group: "q", Index: 0}, IsPort: true}, Sinks: []server.EndPointMsg{pin(14, 14, arch.S0G4)}})
	must("t route", &server.Request{Op: "route", Session: "t", Source: ptr(pin(15, 2, arch.S1YQ)), Sinks: []server.EndPointMsg{pin(15, 6, arch.S0F1)}})
	unchurn(0)
	churn(1)
	// A net detoured around a reservation keeps the way home; the next op
	// carries the change.
	_, w, _, _, _ := sl.current()
	if err := w.Do(ctx, func(r *core.Router, _ *jbits.Session) error {
		ripped, err := r.RipUpNet(core.NewPin(2, 2, outs[1]))
		if err != nil || len(ripped) == 0 {
			return fmt.Errorf("ripping the net to detour: %v, %d records", err, len(ripped))
		}
		r.AddAvoid(2, 4, 3, 3)
		defer r.RemoveAvoid(2, 4, 3, 3)
		for _, rec := range ripped {
			if err := r.RestoreConnection(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	must("route after a detour", route(pin(15, 9, arch.S1YQ), pin(15, 12, arch.S0F2)))
	if !slices.ContainsFunc(entries(t, form("s"), v3.EntryLive), func(e entry) bool { return homeLen(e.Record) > 0 }) {
		t.Fatal("no live record has a way home after the detour")
	}

	// The board dies under a route: the op is not acknowledged, the spare
	// takes over, and the journal already mirrors the spare's router.
	if err := c.KillBoard(0); err != nil {
		t.Fatal(err)
	}
	if resp := do("route over a dead link", route(pin(13, 20, arch.S1YQ), pin(14, 22, arch.S0F3))); resp.ErrorCode != protocol.CodeFailover {
		t.Fatalf("route over a dead link: code %q err %q", resp.ErrorCode, resp.Err)
	}
	if c.Epoch(0) != 2 {
		t.Fatalf("no failover: %+v", c.Stats())
	}
	check("failover")
	f := form("")
	if live, mem, cores := len(entries(t, f, v3.EntryLive)), len(entries(t, f, v3.EntryMemory)), len(entries(t, f, v3.EntryCore)); live < 10 || mem == 0 || cores != 2 {
		t.Fatalf("the failover kept %d live records, %d remembered and %d cores", live, mem, cores)
	}
	must("retry on the spare", route(pin(13, 20, arch.S1YQ), pin(14, 22, arch.S0F3)))
	unchurn(1)
	churn(2)
	if checks < 70 {
		t.Errorf("only %d acknowledged ops were compared", checks)
	}
}

// entry is one entry of a run and its bytes.
type entry struct {
	v3.Entry
	raw []byte
}

// entries lists a run's entries of one tag, or with tag 0 all of them.
func entries(t *testing.T, run []byte, tag byte) (out []entry) {
	t.Helper()
	for len(run) > 0 {
		e, rest, err := v3.NextEntry(run)
		if err != nil {
			t.Fatal(err)
		}
		if tag == 0 || e.Tag == tag {
			out = append(out, entry{e, run[:len(run)-len(rest)]})
		}
		run = rest
	}
	return out
}

// homeLen reads a record blob through to its way home and returns its
// length.
func homeLen(blob []byte) int {
	r := v3.NewReader(blob)
	r.Byte()
	for i, n := 0, 1; i < n; i++ {
		if _, port := r.End(); !port {
			r.Pin()
		}
		if i == 0 {
			n += r.Count()
		}
	}
	for n := r.Count(); n > 0; n-- {
		r.Pip()
	}
	for n := r.Count(); n > 0; n-- {
		r.Pin()
	}
	return r.Count()
}

func ptr(m server.EndPointMsg) *server.EndPointMsg { return &m }
