package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/maze"
	"repro/internal/workload"
)

// batch_reload: a whole design routed by negotiation, shipped, unrouted and
// shipped again. The only workload where NegotiatedRoute, partition scopes,
// bulk commit and bulk unroute do the work; the route cache is never
// consulted.
//
// Every reload of a repetition takes its own draw of the design. How hard a
// crossbar is to negotiate, and how many frames it dirties, depends on where
// it falls relative to the knots; with one draw per run that choice moved
// ops_per_s and frames_per_op by a quarter from seed to seed.
const (
	batchOps      = 80
	batchClusters = 6
	batchPer      = 32
	batchSpread   = 5
	batchXWidth   = 16
	batchXSpan    = 20
)

// design is one draw: the knots plus one crossbar clear of them.
type design struct {
	nets  []core.BatchNet
	specs []maze.NetSpec // the same nets as the negotiation shadow call takes them
}

type batch struct {
	seed int64
	nOps int

	js      *jbits.Session
	r       *core.Router
	ship    *shipProbe
	designs []design      // one per op of a repetition
	audit   time.Duration // how long verify's oracle audit took
}

func newBatch(seed int64, scale float64) *batch {
	return &batch{seed: seed, nOps: scaled(batchOps, scale)}
}

func (w *batch) ops() int { return w.nOps }

func (w *batch) setup() error {
	js, err := jbits.NewSession(arch.NewVirtex(), devRows, devCols)
	if err != nil {
		return err
	}
	w.js = js
	w.r = core.New(js.Dev)
	gen := workload.ForDevice(w.seed, js.Dev)
	for len(w.designs) < w.nOps {
		d, err := drawDesign(gen, js.Dev)
		if err != nil {
			return err
		}
		w.designs = append(w.designs, d)
	}
	w.ship, err = newShipProbe(js)
	return err
}

// drawDesign draws Clustered(6, 32, 5) — 192 knot nets — plus one
// Crossbar(16, 20), re-drawn until its bounding box is clear of every knot's.
// Clear endpoints are not enough: a crossbar laid across a knot's corridor
// does not converge within the negotiation's iteration limit on one design
// in three hundred, and the script must not contain ops that fail.
func drawDesign(gen *workload.Gen, dev *device.Device) (design, error) {
	var d design
	srcs, dsts, err := gen.ClusteredPins(batchClusters, batchPer, batchSpread)
	if err != nil {
		return d, err
	}
	// A knot's nets all run from its first source's column to its first
	// sink's, over the rows from its first net to its last.
	type box struct{ r0, r1, c0, c1 int }
	var knots []box
	for i := 0; i < len(srcs); i += batchPer {
		knots = append(knots, box{srcs[i].Row, srcs[i+batchPer-1].Row, srcs[i].Col, dsts[i].Col})
	}
	for try := 0; ; try++ {
		if try == workload.ChurnRetryLimit {
			return d, fmt.Errorf("no crossbar placement clear of the knots")
		}
		xs, xd, err := gen.CrossbarPins(batchXWidth, batchXSpan)
		if err != nil {
			return d, err
		}
		// Sources are stacked from the first one's row down; sinks permute
		// the same rows one span to the right.
		x := box{xs[0].Row, xs[0].Row + batchXWidth - 1, xs[0].Col, xd[0].Col}
		clear := true
		for _, k := range knots {
			if x.r0 <= k.r1 && k.r0 <= x.r1 && x.c0 <= k.c1 && k.c0 <= x.c1 {
				clear = false
			}
		}
		if clear {
			srcs, dsts = append(srcs, xs...), append(dsts, xd...)
			break
		}
	}
	for i := range srcs {
		d.nets = append(d.nets, core.BatchNet{Source: srcs[i], Sinks: []core.EndPoint{dsts[i]}})
		st, err := dev.Canon(srcs[i].Row, srcs[i].Col, srcs[i].W)
		if err != nil {
			return d, err
		}
		dt, err := dev.Canon(dsts[i].Row, dsts[i].Col, dsts[i].W)
		if err != nil {
			return d, err
		}
		d.specs = append(d.specs, maze.NetSpec{Source: st, Sinks: []device.Track{dt}})
	}
	return d, nil
}

// reset has nothing to do: every reload ends on an empty, shipped device.
func (w *batch) reset() error { return nil }

func (w *batch) rep(rec *recorder, lat []float64) (*repStats, error) {
	st := &repStats{}
	before := w.r.Stats()
	frames, iters, regions := 0, 0, 0
	start := time.Now()
	for i := 0; i < w.nOps; i++ {
		id := int32(i)
		root := rec.begin("op.reload", id, -1)
		t0 := time.Now()
		s := rec.begin("core.route_batch", id, root)
		err := w.r.RouteBatch(w.designs[i].nets)
		rec.end(s)
		if err == nil {
			var n int
			n, err = w.ship.ship(rec, id, root)
			frames += n
		}
		if err == nil {
			s = rec.begin("core.unroute_all", id, root)
			err = w.r.UnrouteAll()
			rec.end(s)
		}
		if err == nil {
			var n int
			n, err = w.ship.ship(rec, id, root)
			frames += n
		}
		took := time.Since(t0)
		rec.end(root)
		if err != nil {
			// A half-done reload leaves state the next one cannot start from.
			return nil, fmt.Errorf("reload %d: %w", i, err)
		}
		if rec != nil {
			// Negotiation only reads the device, and the device is empty
			// again: the shadow call repeats the search RouteBatch just did.
			s := rec.begin("maze.negotiate", id, -1)
			res, err := maze.NegotiatedRoute(w.js.Dev, w.designs[i].specs, maze.NegotiationOptions{Partition: true})
			rec.end(s)
			if err != nil {
				return nil, fmt.Errorf("shadow negotiation: %w", err)
			}
			iters += res.Iterations
			regions += res.Regions
		}
		lat = append(lat, float64(took.Nanoseconds())/1e3)
	}
	st.wall = time.Since(start)
	st.lat = lat
	d := w.r.Stats().Sub(before)
	st.n = counts{
		"ops": w.nOps, "sinks": d.Routes, "pips": d.PIPsSet, "pips_cleared": d.PIPsCleared,
		"frames": frames, "nodes": d.NodesExplored, "iterations": d.BatchIterations,
	}
	if rec != nil {
		st.n["bytes"] = w.ship.takeBytes()
		st.n["shadow_iterations"] = iters
		st.n["shadow_regions"] = regions
	}
	return st, nil
}

// routed runs fn with the first design routed and shipped, then empties the
// device again: the gate and the probes need something to look at.
func (w *batch) routed(fn func() error) error {
	if err := w.r.RouteBatch(w.designs[0].nets); err != nil {
		return err
	}
	if _, err := w.js.SyncPartial(w.ship.board); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	if err := w.r.UnrouteAll(); err != nil {
		return err
	}
	_, err := w.js.SyncPartial(w.ship.board)
	return err
}

func (w *batch) verify() error {
	return w.routed(func() (err error) {
		if w.audit, err = auditRouter(w.r, true); err != nil {
			return err
		}
		return boardMatches(w.js, w.ship.board)
	})
}

func (w *batch) layers(rec *recorder, reps []*repStats) (map[string]float64, error) {
	n := reps[0].n
	ops := float64(n["ops"])
	negotiate := mean(rec.durations("maze.negotiate"))
	m := map[string]float64{
		"maze.negotiate_ms_per_batch":    negotiate / 1e3,
		"maze.negotiate_iters_per_batch": float64(n["shadow_iterations"]) / ops,
		"maze.partition_regions":         float64(n["shadow_regions"]) / ops,
		"core.unroute_all_ms":            mean(rec.durations("core.unroute_all")) / 1e3,
		"core.batch_commit_ms":           (mean(rec.durations("core.route_batch")) - negotiate) / 1e3,
	}
	err := w.routed(func() error { return genericLayers(m, rec, w.r, sumCounts(reps), w.audit) })
	return m, err
}

func (w *batch) close() {
	if w.ship != nil {
		w.ship.close()
	}
}
