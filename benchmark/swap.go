package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/workload"
)

// core_swap: the paper's §3.3 loop. Constant multipliers feeding registers,
// wired port to port, are relocated between two sites and retuned while
// background nets cross the sites. Unrouter, port memory, replay-first
// Reconnect/RestoreConnection, region rip-up and Trace reads do the work;
// A* is nearly idle once every pipeline has seen both of its sites.
const (
	swapOps       = 960 // a multiple of 2*swapPipelines: every repetition ends where it began
	swapPipelines = 8
	swapPitch     = 7 // rows between pipelines
	swapKBits     = 4
	swapNets      = 200 // background nets
	swapNetDist   = 8

	// Columns of a pipeline: the multiplier's two alternate sites (the
	// second also three rows up) and the register. Background nets keep
	// their endpoints off these columns and inside the band around them, so
	// they cross the sites without ending on a core's pins.
	swapSiteACol = 40
	swapSiteBCol = 44
	swapRegCol   = 52
	swapBandLo   = 28
	swapBandHi   = 60
)

type pipeline struct {
	mul   *cores.ConstMul
	sites [2][2]int // row, col of the two alternate sites
	at    int       // index of the site the multiplier occupies
}

type swap struct {
	seed int64
	nOps int

	js    *jbits.Session
	r     *core.Router
	ship  *shipProbe
	pipes []*pipeline
	swaps int // swaps done so far; drives site and constant choice

	// Scratch device for the cores.implement shadow call.
	scratch *core.Router

	audit time.Duration // how long verify's oracle audit took
}

func newSwap(seed int64, scale float64) *swap {
	n := scaled(swapOps, scale)
	if period := 2 * swapPipelines; n%period != 0 {
		n += period - n%period
	}
	return &swap{seed: seed, nOps: n}
}

func (w *swap) ops() int { return w.nOps }

func (w *swap) setup() error {
	a := arch.NewVirtex()
	js, err := jbits.NewSession(a, devRows, devCols)
	if err != nil {
		return err
	}
	w.js = js
	w.r = core.New(js.Dev)
	sdev, err := device.New(a, devRows, devCols)
	if err != nil {
		return err
	}
	w.scratch = core.New(sdev)
	if w.ship, err = newShipProbe(js); err != nil {
		return err
	}

	// Background first, so the pipelines route over a used fabric.
	reserved := map[int]bool{swapSiteACol: true, swapSiteBCol: true, swapRegCol: true}
	inBand := func(p core.Pin) bool { return p.Col >= swapBandLo && p.Col <= swapBandHi && !reserved[p.Col] }
	gen := workload.ForDevice(w.seed, js.Dev)
	usedSrc, usedSink := map[core.Pin]bool{}, map[core.Pin]bool{}
	for placed := 0; placed < swapNets; {
		src, sink, err := gen.Pair(swapNetDist)
		if err != nil {
			return err
		}
		if !inBand(src) || !inBand(sink) || usedSrc[src] || usedSink[sink] {
			continue
		}
		if err := w.r.RouteNet(src, sink); err != nil {
			return fmt.Errorf("background net %v -> %v: %w", src, sink, err)
		}
		usedSrc[src], usedSink[sink] = true, true
		placed++
	}

	for i := 0; i < swapPipelines; i++ {
		row := 3 + swapPitch*i
		mul, err := cores.NewConstMul(fmt.Sprintf("mul%d", i), 3, swapKBits)
		if err != nil {
			return err
		}
		reg, err := cores.NewRegister(fmt.Sprintf("reg%d", i), mul.OutBits())
		if err != nil {
			return err
		}
		p := &pipeline{mul: mul, sites: [2][2]int{{row, swapSiteACol}, {row + 3, swapSiteBCol}}}
		if err := mul.Place(p.sites[0][0], p.sites[0][1]); err != nil {
			return err
		}
		if err := mul.Implement(w.r); err != nil {
			return err
		}
		if err := reg.Place(row, swapRegCol); err != nil {
			return err
		}
		if err := reg.Implement(w.r); err != nil {
			return err
		}
		if err := w.r.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()); err != nil {
			return fmt.Errorf("pipeline %d bus: %w", i, err)
		}
		w.pipes = append(w.pipes, p)
	}
	_, err = js.SyncFull(w.ship.board)
	return err
}

// reset has nothing to do: the op count is a whole number of rounds over
// both sites of every pipeline, so a repetition ends where it began.
func (w *swap) reset() error { return nil }

func (w *swap) rep(rec *recorder, lat []float64) (*repStats, error) {
	st := &repStats{}
	before := w.r.Stats()
	frames, traced, ripped := 0, 0, 0
	start := time.Now()
	for i := 0; i < w.nOps; i++ {
		id := int32(i)
		p := w.pipes[w.swaps%len(w.pipes)]
		to := p.sites[1-p.at]
		k := uint64(w.swaps*7+3) % (1 << swapKBits)
		w.swaps++

		var background map[*core.Connection]bool
		if rec != nil {
			background = w.backgroundRecords()
		}
		root := rec.begin("op.swap", id, -1)
		t0 := time.Now()
		s := rec.begin("cores.replace", id, root)
		err := cores.Replace(w.r, p.mul, to[0], to[1], []string{"p"},
			func() error { return p.mul.SetConstant(w.r, k) })
		rec.end(s)
		if err != nil {
			// A half-replaced core leaves state no later swap can start from.
			return nil, fmt.Errorf("swap %d: %w", i, err)
		}
		p.at = 1 - p.at
		for _, port := range p.mul.Ports("p") {
			s := rec.begin("core.trace", id, root)
			net, err := w.r.Trace(port)
			rec.end(s)
			if err != nil || len(net.Sinks) == 0 {
				return nil, fmt.Errorf("swap %d: product bit lost its register: %v", i, err)
			}
			traced += len(net.Sinks)
		}
		n, err := w.ship.ship(rec, id, root)
		took := time.Since(t0)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("swap %d: %w", i, err)
		}
		frames += n
		lat = append(lat, float64(took.Nanoseconds())/1e3)

		if rec != nil {
			// A ripped crosser comes back under a fresh record.
			for c := range w.backgroundRecords() {
				delete(background, c)
			}
			ripped += len(background)
			if err := w.shadowImplement(rec, id, k); err != nil {
				return nil, err
			}
		}
	}
	st.wall = time.Since(start)
	st.lat = lat
	d := w.r.Stats().Sub(before)
	st.n = counts{
		"ops": w.nOps, "sinks": d.Routes, "pips": d.PIPsSet, "pips_cleared": d.PIPsCleared,
		"frames": frames, "nodes": d.NodesExplored, "traced_sinks": traced,
		"cache_hits": d.CacheHits, "replay_fails": d.ReplayFails, "fallbacks": d.MazeFallbacks,
	}
	if rec != nil {
		st.n["bytes"] = w.ship.takeBytes()
		st.n["ripped"] = ripped
	}
	return st, nil
}

// backgroundRecords is the set of live pin-to-pin connection records: the
// third-party nets, as opposed to the pipelines' port nets.
func (w *swap) backgroundRecords() map[*core.Connection]bool {
	out := map[*core.Connection]bool{}
	for _, c := range w.r.Connections() {
		if _, isPin := c.Source.(core.Pin); !isPin {
			continue
		}
		if _, isPin := c.Sinks[0].(core.Pin); isPin {
			out[c] = true
		}
	}
	return out
}

// shadowImplement times a multiplier's Implement alone, on a scratch device.
func (w *swap) shadowImplement(rec *recorder, id int32, k uint64) error {
	mul, err := cores.NewConstMul("shadow", k, swapKBits)
	if err != nil {
		return err
	}
	if err := mul.Place(3, swapSiteACol); err != nil {
		return err
	}
	s := rec.begin("cores.implement", id, -1)
	err = mul.Implement(w.scratch)
	rec.end(s)
	if err != nil {
		return err
	}
	return mul.Remove(w.scratch)
}

func (w *swap) verify() error {
	// Registers take their clock through RouteClock, which keeps no
	// connection record, so coverage cannot be strict here.
	var err error
	if w.audit, err = auditRouter(w.r, false); err != nil {
		return err
	}
	return boardMatches(w.js, w.ship.board)
}

func (w *swap) layers(rec *recorder, reps []*repStats) (map[string]float64, error) {
	n := reps[0].n
	m := map[string]float64{
		"cores.replace_us_p50":       median(rec.durations("cores.replace")),
		"cores.implement_us_p50":     median(rec.durations("cores.implement")),
		"cores.ripped_nets_per_swap": ratio(float64(n["ripped"]), float64(n["ops"])),
		"core.trace_us_p50":          median(rec.durations("core.trace")),
	}
	err := genericLayers(m, rec, w.r, sumCounts(reps), w.audit)
	return m, err
}

func (w *swap) close() {
	if w.ship != nil {
		w.ship.close()
	}
}
