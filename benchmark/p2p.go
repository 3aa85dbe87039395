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

// p2p_cold: fresh point-to-point pairs through a sliding window of live
// nets on a bare Router. Search-bound: the routes that fall through
// templates and cache to A* carry most of the wall time, and nothing is
// serialized or sent.
const (
	// Which routes fall through to A*, and how far each search spreads,
	// follows the seed: at 10000 ops the nodes explored, and with them
	// ops_per_s, spread by a quarter from seed to seed.
	p2pOps    = 20000
	p2pWindow = 400
	// The traced pass makes its shadow A* call on every third route request:
	// templates and cache serve nine routes in ten, so searching for all of
	// them would be several times the search work of the script itself.
	p2pShadowEvery = 3
)

var p2pDists = []int{3, 8, 16, 30, 50}

type p2pOp struct {
	route     bool
	src, sink core.Pin
	srcT      device.Track
	sinkT     device.Track
}

type p2p struct {
	seed   int64
	nOps   int
	window int

	js     *jbits.Session
	r      *core.Router
	script []p2pOp
	ship   *shipProbe
	audit  time.Duration // how long verify's oracle audit took
}

func newP2P(seed int64, scale float64) *p2p {
	w := &p2p{seed: seed, nOps: scaled(p2pOps, scale), window: scaled(p2pWindow, scale)}
	if w.window < 4 {
		w.window = 4
	}
	return w
}

// scaled shrinks a script size for the smoke test.
func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m >= 1 {
		return m
	}
	return 1
}

func (w *p2p) ops() int { return w.nOps }

func (w *p2p) setup() error {
	js, err := jbits.NewSession(arch.NewVirtex(), devRows, devCols)
	if err != nil {
		return err
	}
	w.js = js
	gen := workload.ForDevice(w.seed, js.Dev)
	// Live endpoints, so that no drawn pair lands on a pin a live net
	// already uses: a shared source pin would merge two nets and a shared
	// sink pin would contend, and the script must not contain ops that fail.
	liveSrc := map[core.Pin]bool{}
	liveSink := map[core.Pin]bool{}
	var window []p2pOp
	for drawn := 0; len(w.script) < w.nOps; {
		var src, sink core.Pin
		for {
			src, sink, err = gen.Pair(p2pDists[drawn%len(p2pDists)])
			if err != nil {
				return err
			}
			if !liveSrc[src] && !liveSink[sink] {
				break
			}
		}
		drawn++
		op := p2pOp{route: true, src: src, sink: sink}
		if op.srcT, err = js.Dev.Canon(src.Row, src.Col, src.W); err != nil {
			return err
		}
		if op.sinkT, err = js.Dev.Canon(sink.Row, sink.Col, sink.W); err != nil {
			return err
		}
		liveSrc[src], liveSink[sink] = true, true
		w.script = append(w.script, op)
		window = append(window, op)
		if len(window) > w.window && len(w.script) < w.nOps {
			old := window[0]
			window = window[1:]
			delete(liveSrc, old.src)
			delete(liveSink, old.sink)
			old.route = false
			w.script = append(w.script, old)
		}
	}
	w.ship, err = newShipProbe(js)
	return err
}

// reset starts from a fresh device and a fresh Router, so every repetition
// meets the same empty fabric and the same cold route cache. Emptying the
// old device is not the same: the script re-run on one device got 40% slower
// over 20 repetitions, for identical work counts.
func (w *p2p) reset() error {
	js, err := jbits.NewSession(w.js.Dev.A, devRows, devCols)
	if err != nil {
		return err
	}
	w.js, w.ship.js = js, js
	w.r = core.New(js.Dev)
	return nil
}

func (w *p2p) rep(rec *recorder, lat []float64) (*repStats, error) {
	dev := w.js.Dev
	st := &repStats{n: counts{}}
	paths := map[core.Pin][]device.PIP{} // traced only: remembered paths by source
	frames := 0
	start := time.Now()
	for i := range w.script {
		op := &w.script[i]
		id := int32(i)
		var err error
		var took time.Duration
		name := "op.unroute"
		if op.route {
			name = "op.route"
		}
		root := rec.begin(name, id, -1)
		if op.route {
			if rec != nil && i%p2pShadowEvery == 0 {
				// Search is read-only, so the shadow call sees exactly the
				// fabric the real op is about to route on.
				s := rec.begin("maze.astar", id, root)
				_, _ = maze.AStar(dev, []device.Track{op.srcT}, op.sinkT, maze.Options{})
				rec.end(s)
			}
			s := rec.begin("core.route", id, root)
			t0 := time.Now()
			err = w.r.RouteNet(op.src, op.sink)
			took = time.Since(t0)
			rec.end(s)
			if rec != nil && err == nil {
				// The newest record holds the path just committed.
				cs := w.r.Connections()
				paths[op.src] = cs[len(cs)-1].Path
			}
		} else {
			s := rec.begin("core.unroute", id, root)
			t0 := time.Now()
			err = w.r.Unroute(op.src)
			took = time.Since(t0)
			rec.end(s)
			if rec != nil && err == nil {
				// The path just freed is legal again: a pure replay sweep.
				s := rec.begin("maze.replay", id, root)
				_, _ = maze.Replay(dev, []device.Track{op.srcT}, paths[op.src], 0, 0)
				rec.end(s)
				delete(paths, op.src)
			}
		}
		n, serr := w.shipOrCount(rec, id, root)
		if serr != nil {
			return nil, serr
		}
		frames += n
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("op %d (%v -> %v): %w", i, op.src, op.sink, err)
		}
		lat = append(lat, float64(took.Nanoseconds())/1e3)
	}
	st.wall = time.Since(start)
	st.lat = lat
	rs := w.r.Stats()
	st.n = counts{
		"ops": w.nOps, "sinks": rs.Routes, "pips": rs.PIPsSet, "pips_cleared": rs.PIPsCleared,
		"frames": frames, "nodes": rs.NodesExplored, "template_hits": rs.TemplateHits,
		"cache_hits": rs.CacheHits, "fallbacks": rs.MazeFallbacks,
	}
	if rec != nil {
		st.n["bytes"] = w.ship.takeBytes()
	}
	return st, nil
}

// shipOrCount accounts the frames one op dirtied. The default pass only
// counts them (this workload ships nothing); the traced pass runs the
// shipping probes on them.
func (w *p2p) shipOrCount(rec *recorder, id, parent int32) (int, error) {
	if rec != nil {
		return w.ship.ship(rec, id, parent)
	}
	n := w.js.Dev.DirtyFrameCount()
	w.js.Dev.ClearDirty()
	return n, nil
}

func (w *p2p) verify() (err error) {
	w.audit, err = auditRouter(w.r, true)
	return err
}

func (w *p2p) layers(rec *recorder, reps []*repStats) (map[string]float64, error) {
	n := reps[0].n
	routes := float64(n["sinks"])
	astar := rec.durations("maze.astar")
	route := rec.durations("core.route")
	var all []float64
	for _, st := range reps {
		all = append(all, st.lat...)
	}
	m := map[string]float64{
		"maze.astar_us_p50":       quantile(astar, 0.5),
		"maze.astar_us_p99":       quantile(astar, 0.99),
		"maze.nodes_per_route":    ratio(float64(n["nodes"]), routes),
		"maze.template_hit_ratio": ratio(float64(n["template_hits"]), routes),
		"maze.fallback_ratio":     ratio(float64(n["fallbacks"]), routes),
		"maze.replay_us_p50":      median(rec.durations("maze.replay")),
		"core.route_us_p50":       quantile(route, 0.5),
		"core.route_us_p99":       quantile(route, 0.99),
		"core.unroute_us_p50":     median(rec.durations("core.unroute")),
		"core.op_p99_us":          quantile(all, 0.99),
	}
	if err := genericLayers(m, rec, w.r, sumCounts(reps), w.audit); err != nil {
		return nil, err
	}
	return m, nil
}

func (w *p2p) close() {
	if w.ship != nil {
		w.ship.close()
	}
}
