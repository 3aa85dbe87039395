package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/oracle"
)

// shipProbe takes the bitstream and jbits layer timings of the traced pass.
// After a mutating op it serializes the op's dirty frames and applies the
// same stream three ways — straight into a board, over an in-process XHWIF
// link, and through Session.SyncPartial, which also clears the dirty set.
type shipProbe struct {
	js     *jbits.Session
	board  *jbits.Board       // SyncPartial target
	apply  *jbits.Board       // Board.ConfigurePartial target
	remote *jbits.RemoteBoard // RemoteBoard.ConfigurePartial, served by jbits.Serve
	link   net.Conn
	served chan struct{}
	buf    []byte
	bytes  int // stream bytes serialized since the last take
}

func newShipProbe(js *jbits.Session) (*shipProbe, error) {
	p := &shipProbe{js: js, served: make(chan struct{})}
	boards := make([]*jbits.Board, 3)
	for i := range boards {
		b, err := jbits.NewBoard(fmt.Sprintf("probe%d", i), js.Dev.A, js.Dev.Rows, js.Dev.Cols)
		if err != nil {
			return nil, err
		}
		boards[i] = b
	}
	p.board, p.apply = boards[0], boards[1]
	hostSide, boardSide := net.Pipe()
	p.link = hostSide
	p.remote = jbits.Dial(hostSide)
	go func() {
		defer close(p.served)
		_ = jbits.Serve(boardSide, boards[2]) // ends when close severs the link
		boardSide.Close()
	}()
	return p, nil
}

// ship ships the frames dirtied since the last call to the board and
// returns how many there were: a plain SyncPartial in the default pass (nil
// recorder), with the probes in front of it in the traced pass.
func (p *shipProbe) ship(rec *recorder, op, parent int32) (int, error) {
	if rec == nil {
		return p.js.SyncPartial(p.board)
	}
	var err error
	s := rec.begin("bitstream.serialize", op, parent)
	p.buf, err = p.js.Dev.AppendPartialConfig(p.buf[:0])
	rec.end(s)
	if err != nil {
		return 0, err
	}
	p.bytes += len(p.buf)
	s = rec.begin("jbits.board_apply", op, parent)
	err = p.apply.ConfigurePartial(p.buf)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin("jbits.xhwif_rtt", op, parent)
	err = p.remote.ConfigurePartial(p.buf)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin("jbits.sync_partial", op, parent)
	n, err := p.js.SyncPartial(p.board)
	rec.end(s)
	return n, err
}

// takeBytes returns and clears the serialized-byte tally.
func (p *shipProbe) takeBytes() int {
	n := p.bytes
	p.bytes = 0
	return n
}

func (p *shipProbe) close() {
	p.link.Close()
	<-p.served
}

// auditRouter is the in-process correctness gate: the device's full
// configuration, re-extracted from raw frames by the bitstream oracle, must
// be structurally clean and must connect every live claim of the router.
// strict also rejects nets that no claim covers. It returns how long the
// audit took: the traced pass reports that as the oracle layer's cost.
func auditRouter(r *core.Router, strict bool) (time.Duration, error) {
	claims := r.OracleClaims()
	if len(claims) == 0 {
		return 0, fmt.Errorf("nothing is routed: the audit would pass on an empty device")
	}
	t0 := time.Now()
	stream, err := r.Dev.FullConfig()
	if err != nil {
		return 0, err
	}
	err = oracle.Audit(r.Dev.A, stream, claims, strict)
	return time.Since(t0), err
}

// boardMatches requires the board to hold exactly the session's image.
func boardMatches(js *jbits.Session, b *jbits.Board) error {
	diff, err := js.VerifyReadback(b)
	if err != nil {
		return err
	}
	if diff != 0 {
		return fmt.Errorf("board %s differs from the session image in %d frames", b.Name, diff)
	}
	return nil
}

// sumCounts adds up the counts of several repetitions.
func sumCounts(reps []*repStats) counts {
	total := counts{}
	for _, st := range reps {
		for k, v := range st.n {
			total[k] += v
		}
	}
	return total
}

// genericLayers fills in the metrics every workload's traced pass can give
// for its own script: the device, bitstream, jbits and oracle layers. r is
// the router with the workload's nets routed; n the counts summed over
// every op the recorder holds; audit how long the correctness gate's oracle
// audit of this configuration took.
func genericLayers(m map[string]float64, rec *recorder, r *core.Router, n counts, audit time.Duration) error {
	dev := r.Dev
	totalOps := float64(n["ops"])
	sum := func(name string) float64 {
		var s float64
		for _, d := range rec.durations(name) {
			s += d
		}
		return s
	}

	// Replay of the committed PIPs on a blank device of the same geometry.
	pips := dev.AllOnPIPs()
	blank, err := device.New(dev.A, dev.Rows, dev.Cols)
	if err != nil {
		return err
	}
	var set, clear []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for _, p := range pips {
			if err := blank.SetPIP(p.Row, p.Col, p.From, p.To); err != nil {
				return fmt.Errorf("replaying committed PIPs: %w", err)
			}
		}
		t1 := time.Now()
		for i := len(pips) - 1; i >= 0; i-- {
			p := pips[i]
			if err := blank.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
				return fmt.Errorf("clearing replayed PIPs: %w", err)
			}
		}
		t2 := time.Now()
		set = append(set, float64(t1.Sub(t0).Nanoseconds())/float64(len(pips)))
		clear = append(clear, float64(t2.Sub(t1).Nanoseconds())/float64(len(pips)))
	}
	m["device.setpip_ns"] = median(set)
	m["device.clearpip_ns"] = median(clear)
	m["device.pips_per_op"] = ratio(float64(n["pips"]+n["pips_cleared"]), float64(n["ops"]))

	m["bitstream.serialize_us_per_op"] = sum("bitstream.serialize") / totalOps
	m["bitstream.bytes_per_op"] = ratio(float64(n["bytes"]), float64(n["ops"]))
	t0 := time.Now()
	if _, err := dev.FullConfig(); err != nil {
		return err
	}
	m["bitstream.full_config_ms"] = time.Since(t0).Seconds() * 1e3

	m["jbits.sync_partial_us_per_op"] = sum("jbits.sync_partial") / totalOps
	m["jbits.board_apply_us_per_op"] = sum("jbits.board_apply") / totalOps
	m["jbits.xhwif_rtt_us_p50"] = median(rec.durations("jbits.xhwif_rtt"))

	m["oracle.audit_ms"] = audit.Seconds() * 1e3
	return nil
}
