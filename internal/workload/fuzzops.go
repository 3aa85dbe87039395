package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
)

// Script generation: seeded random op sequences for the differential
// verification harness (internal/oracle/fuzz). A script is pure data — the
// harness applies the same script to several router configurations (cache
// on/off, parallelism 1/N) and requires identical outcomes, so the
// generator must be deterministic for a seed and must do its own liveness
// bookkeeping: ops mostly target endpoints in states where they succeed
// (fresh pins for routes, live nets for unroutes), because a script whose
// every op fails exercises nothing. A failing op is still a legal step —
// all configurations must fail it identically.

// ScriptOpKind enumerates the operations a script step can take.
type ScriptOpKind uint8

// Script op kinds.
const (
	// OpRouteNet routes Src to Sinks[0] (single sink).
	OpRouteNet ScriptOpKind = iota
	// OpRouteFanout routes Src to all of Sinks.
	OpRouteFanout
	// OpRouteBus routes Srcs[i] to Dsts[i] as one negotiated batch.
	OpRouteBus
	// OpUnroute removes the whole net sourced at Src.
	OpUnroute
	// OpReverseUnroute removes only the branch reaching Sinks[0].
	OpReverseUnroute
	// OpReroute routes a previously unrouted net again (Src to Sinks) —
	// the exact-cache replay path.
	OpReroute
	// OpCoreNew places and implements a register core at slot Slot and
	// routes its output port to Sinks[0].
	OpCoreNew
	// OpCoreReplace swaps the core at slot Slot for a fresh instance:
	// rip-up, re-implement, reconnect (§3.3).
	OpCoreReplace
	// OpNoCObstacle places a 1x1 obstacle over the NoC mesh node tile in
	// Rect — ripping the node, its links, and every net crossing the tile,
	// then detouring the survivors (cores.NoC.PlaceObstacle).
	OpNoCObstacle
	// OpNoCClear removes the obstacle in Rect, restoring the node, its
	// links, and the detoured nets (cores.NoC.RemoveObstacle).
	OpNoCClear
)

// String names the op kind.
func (k ScriptOpKind) String() string {
	switch k {
	case OpRouteNet:
		return "route"
	case OpRouteFanout:
		return "fanout"
	case OpRouteBus:
		return "bus"
	case OpUnroute:
		return "unroute"
	case OpReverseUnroute:
		return "reverse-unroute"
	case OpReroute:
		return "reroute"
	case OpCoreNew:
		return "core-new"
	case OpCoreReplace:
		return "core-replace"
	case OpNoCObstacle:
		return "noc-obstacle"
	case OpNoCClear:
		return "noc-clear"
	default:
		return "unknown"
	}
}

// Fixed mesh geometry NoC-enabled scripts assume (matching
// internal/noc.DefaultConfig): a 3x3 node grid, south-west node at tile
// (3,8), pitch 3, with each node's packet-injection tap one tile north.
// The generator reserves node and tap tiles against random endpoints, and
// obstacle ops target node tiles only, so a placement never swallows a
// script net's endpoint.
const (
	NoCMeshRows = 3
	NoCMeshCols = 3
	NoCBaseRow  = 3
	NoCBaseCol  = 8
	NoCPitch    = 3
)

// NoCNodeSite returns the tile of mesh node (i, j) in the fixed fuzz
// geometry.
func NoCNodeSite(i, j int) (row, col int) {
	return NoCBaseRow + i*NoCPitch, NoCBaseCol + j*NoCPitch
}

// nocConnectedWithout reports whether the fixed mesh's nodes minus the
// occluded set and minus one more candidate stay a single connected
// component — the generator-side mirror of the DyNoC placement check.
func nocConnectedWithout(occl map[[2]int]bool, minus [2]int) bool {
	live := func(i, j int) bool {
		return i >= 0 && i < NoCMeshRows && j >= 0 && j < NoCMeshCols &&
			!occl[[2]int{i, j}] && [2]int{i, j} != minus
	}
	var start [2]int
	found, total := false, 0
	for i := 0; i < NoCMeshRows; i++ {
		for j := 0; j < NoCMeshCols; j++ {
			if live(i, j) {
				if !found {
					start, found = [2]int{i, j}, true
				}
				total++
			}
		}
	}
	if total == 0 {
		return false
	}
	seen := map[[2]int]bool{start: true}
	queue := [][2]int{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range [][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
			nx := [2]int{cur[0] + d[0], cur[1] + d[1]}
			if live(nx[0], nx[1]) && !seen[nx] {
				seen[nx] = true
				queue = append(queue, nx)
			}
		}
	}
	return len(seen) == total
}

// NoCChurn generates a seeded pure obstacle-churn script: only
// OpNoCObstacle / OpNoCClear steps against the fixed mesh geometry,
// targeting non-corner nodes only, so packet flows anchored at the four
// corners stay active through every event. Placements never overlap and
// always leave the live node graph connected. noc.TestNoCChurnSmoke drives
// this sequence.
func (g *Gen) NoCChurn(events int) []ScriptOp {
	occl := make(map[[2]int]bool)
	var active [][2]int
	var cands [][2]int
	for i := 0; i < NoCMeshRows; i++ {
		for j := 0; j < NoCMeshCols; j++ {
			corner := (i == 0 || i == NoCMeshRows-1) && (j == 0 || j == NoCMeshCols-1)
			if !corner {
				cands = append(cands, [2]int{i, j})
			}
		}
	}
	var ops []ScriptOp
	for len(ops) < events {
		var legal [][2]int
		for _, id := range cands {
			if !occl[id] && nocConnectedWithout(occl, id) {
				legal = append(legal, id)
			}
		}
		if len(active) > 0 && (len(legal) == 0 || g.Rng.Float64() < 0.45) {
			i := g.Rng.Intn(len(active))
			id := active[i]
			active = append(active[:i], active[i+1:]...)
			delete(occl, id)
			r, c := NoCNodeSite(id[0], id[1])
			ops = append(ops, ScriptOp{Serial: len(ops), Kind: OpNoCClear, Rect: [4]int{r, c, 1, 1}})
			continue
		}
		if len(legal) == 0 {
			break // unreachable on a 3x3 mesh; guards degenerate geometries
		}
		id := legal[g.Rng.Intn(len(legal))]
		occl[id] = true
		active = append(active, id)
		r, c := NoCNodeSite(id[0], id[1])
		ops = append(ops, ScriptOp{Serial: len(ops), Kind: OpNoCObstacle, Rect: [4]int{r, c, 1, 1}})
	}
	return ops
}

// ScriptOp is one step of a generated op sequence.
type ScriptOp struct {
	Serial int
	Kind   ScriptOpKind
	Src    core.Pin
	Sinks  []core.Pin
	Srcs   []core.Pin // bus sources, aligned with Dsts
	Dsts   []core.Pin // bus sinks
	Slot   int        // core slot for OpCoreNew / OpCoreReplace
	Rect   [4]int     // row, col, height, width for OpNoCObstacle / OpNoCClear
}

// ScriptOptions tune Script.
type ScriptOptions struct {
	Steps int
	// CoreSlots reserves this many single-tile register-core sites (see
	// CoreSlotSite); 0 disables core ops.
	CoreSlots int
	// PUnroute is the probability of an unroute-type step when at least
	// one net is live (default 0.35).
	PUnroute float64
	// MaxFanout bounds fanout sinks (default 3).
	MaxFanout int
	// MaxBusWidth bounds bus width (default 4).
	MaxBusWidth int
	// MaxLive caps concurrently live nets (default rows*cols/4): when the
	// cap is reached the generator forces unroute steps, holding the
	// board at a steady-state density so arbitrarily long scripts never
	// exhaust the endpoint pool.
	MaxLive int
	// NoC mixes in mesh obstacle place/clear ops against the fixed
	// NoCMesh* geometry. The generator keeps its own occlusion model and
	// emits only connectivity-preserving, non-overlapping placements —
	// the DyNoC precondition PlaceObstacle enforces.
	NoC bool
}

// CoreSlotSite returns the tile of reserved core slot i on a rows x cols
// array. Slots hold 1x1 register cores; the generator keeps random
// endpoints off these tiles so core placement and replacement never race
// script nets for logic pins. Both the generator and the harness executor
// derive sites from this single function.
func CoreSlotSite(slot, rows, cols int) (row, col int) {
	return rows - 2, 2 + 2*slot
}

// liveNet tracks one net the script has routed and not yet removed.
type liveNet struct {
	src   core.Pin
	sinks []core.Pin
}

// Script generates a seeded op sequence of the given shape. It fails only
// when endpoint selection exhausts the array (EndpointExhaustedError).
func (g *Gen) Script(o ScriptOptions) ([]ScriptOp, error) {
	if o.PUnroute == 0 {
		o.PUnroute = 0.35
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = 3
	}
	if o.MaxBusWidth == 0 {
		o.MaxBusWidth = 4
	}
	reserved := make(map[device.Coord]bool)
	for s := 0; s < o.CoreSlots; s++ {
		r, c := CoreSlotSite(s, g.Rows, g.Cols)
		if r < 0 || r >= g.Rows || c < 0 || c >= g.Cols {
			return nil, fmt.Errorf("workload: core slot %d site (%d,%d) off the %dx%d array", s, r, c, g.Rows, g.Cols)
		}
		reserved[device.Coord{Row: r, Col: c}] = true
	}
	// nocOccl models which mesh nodes are currently under an obstacle; the
	// generator emits only placements that keep the remaining node graph
	// connected, mirroring the check PlaceObstacle itself enforces.
	nocOccl := make(map[[2]int]bool)
	var nocActive [][2]int // occluded nodes, placement order
	if o.NoC {
		topRow := NoCBaseRow + (NoCMeshRows-1)*NoCPitch + 1
		rightCol := NoCBaseCol + (NoCMeshCols-1)*NoCPitch
		if topRow >= g.Rows || rightCol >= g.Cols {
			return nil, fmt.Errorf("workload: NoC mesh does not fit the %dx%d array", g.Rows, g.Cols)
		}
		for i := 0; i < NoCMeshRows; i++ {
			for j := 0; j < NoCMeshCols; j++ {
				r, c := NoCNodeSite(i, j)
				reserved[device.Coord{Row: r, Col: c}] = true
				reserved[device.Coord{Row: r + 1, Col: c}] = true // inject tap
			}
		}
	}

	usedOut := make(map[core.Pin]bool)
	usedIn := make(map[core.Pin]bool)
	var live []liveNet
	var retired []liveNet
	coreLive := make([]bool, o.CoreSlots)

	// win constrains endpoint picks to a tile window; nil means the whole
	// array. Clustered-bus steps use a window so the batch exercises the
	// partitioned negotiator's region path, not just device-wide nets.
	type win struct{ r0, c0, r1, c1 int }
	pick := func(w *win) (int, int) {
		if w == nil {
			return g.Rng.Intn(g.Rows), g.Rng.Intn(g.Cols)
		}
		return w.r0 + g.Rng.Intn(w.r1-w.r0+1), w.c0 + g.Rng.Intn(w.c1-w.c0+1)
	}
	freshOutIn := func(w *win) (core.Pin, bool) {
		for i := 0; i < ChurnRetryLimit; i++ {
			r, c := pick(w)
			if reserved[device.Coord{Row: r, Col: c}] {
				continue
			}
			p := g.randOutPin(r, c)
			if !usedOut[p] {
				return p, true
			}
		}
		return core.Pin{}, false
	}
	freshOut := func() (core.Pin, bool) { return freshOutIn(nil) }
	freshInWin := func(avoid map[device.Coord]bool, w *win) (core.Pin, bool) {
		for i := 0; i < ChurnRetryLimit; i++ {
			r, c := pick(w)
			co := device.Coord{Row: r, Col: c}
			if reserved[co] || (avoid != nil && avoid[co]) {
				continue
			}
			p := g.randInPin(r, c)
			if !usedIn[p] {
				return p, true
			}
		}
		return core.Pin{}, false
	}
	freshIn := func(avoid map[device.Coord]bool) (core.Pin, bool) { return freshInWin(avoid, nil) }
	exhausted := func(step int) error {
		return &EndpointExhaustedError{Step: step, Attempts: ChurnRetryLimit}
	}

	commit := func(src core.Pin, sinks []core.Pin) {
		usedOut[src] = true
		for _, s := range sinks {
			usedIn[s] = true
		}
		live = append(live, liveNet{src: src, sinks: append([]core.Pin(nil), sinks...)})
	}
	release := func(n liveNet) {
		delete(usedOut, n.src)
		for _, s := range n.sinks {
			delete(usedIn, s)
		}
	}

	var ops []ScriptOp
	add := func(op ScriptOp) {
		op.Serial = len(ops)
		ops = append(ops, op)
	}

	if o.MaxLive == 0 {
		o.MaxLive = g.Rows * g.Cols / 4
	}

	for len(ops) < o.Steps {
		roll := g.Rng.Float64()
		if len(live) >= o.MaxLive {
			roll = 0 // force an unroute-type step at the density cap
		}
		switch {
		case roll < o.PUnroute && len(live) > 0:
			i := g.Rng.Intn(len(live))
			n := live[i]
			if len(n.sinks) > 1 && g.Rng.Intn(2) == 0 {
				// Drop one branch of a fanout net.
				j := g.Rng.Intn(len(n.sinks))
				sink := n.sinks[j]
				add(ScriptOp{Kind: OpReverseUnroute, Sinks: []core.Pin{sink}})
				delete(usedIn, sink)
				n.sinks = append(append([]core.Pin(nil), n.sinks[:j]...), n.sinks[j+1:]...)
				live[i] = n
				continue
			}
			add(ScriptOp{Kind: OpUnroute, Src: n.src})
			release(n)
			live = append(live[:i], live[i+1:]...)
			retired = append(retired, n)

		case roll < o.PUnroute+0.08 && len(retired) > 0:
			// Replay a previously torn-down net (exact-cache path) if its
			// endpoints are still free.
			i := g.Rng.Intn(len(retired))
			n := retired[i]
			free := !usedOut[n.src]
			for _, s := range n.sinks {
				free = free && !usedIn[s]
			}
			retired = append(retired[:i], retired[i+1:]...)
			if !free {
				continue
			}
			add(ScriptOp{Kind: OpReroute, Src: n.src, Sinks: append([]core.Pin(nil), n.sinks...)})
			commit(n.src, n.sinks)

		case o.NoC && roll > 1-0.16 && roll <= 1-0.06:
			// Mesh obstacle churn: clear an active obstacle or occlude a
			// fresh node, never disconnecting the generator's node-graph
			// model. A draw that finds no legal move emits nothing and the
			// loop rolls again — legality depends only on generator state,
			// so the emitted script succeeds identically on every config.
			if len(nocActive) > 0 && g.Rng.Intn(2) == 0 {
				i := g.Rng.Intn(len(nocActive))
				id := nocActive[i]
				nocActive = append(nocActive[:i], nocActive[i+1:]...)
				delete(nocOccl, id)
				r, c := NoCNodeSite(id[0], id[1])
				add(ScriptOp{Kind: OpNoCClear, Rect: [4]int{r, c, 1, 1}})
				continue
			}
			id := [2]int{g.Rng.Intn(NoCMeshRows), g.Rng.Intn(NoCMeshCols)}
			if nocOccl[id] || !nocConnectedWithout(nocOccl, id) {
				continue
			}
			nocOccl[id] = true
			nocActive = append(nocActive, id)
			r, c := NoCNodeSite(id[0], id[1])
			add(ScriptOp{Kind: OpNoCObstacle, Rect: [4]int{r, c, 1, 1}})

		case o.CoreSlots > 0 && roll > 1-0.06:
			slot := g.Rng.Intn(o.CoreSlots)
			if coreLive[slot] {
				add(ScriptOp{Kind: OpCoreReplace, Slot: slot})
				continue
			}
			sink, ok := freshIn(nil)
			if !ok {
				return nil, exhausted(len(ops))
			}
			add(ScriptOp{Kind: OpCoreNew, Slot: slot, Sinks: []core.Pin{sink}})
			usedIn[sink] = true
			coreLive[slot] = true

		default:
			shape := g.Rng.Float64()
			switch {
			case shape < 0.55: // single-sink net
				src, ok := freshOut()
				if !ok {
					return nil, exhausted(len(ops))
				}
				sink, ok := freshIn(map[device.Coord]bool{{Row: src.Row, Col: src.Col}: true})
				if !ok {
					return nil, exhausted(len(ops))
				}
				add(ScriptOp{Kind: OpRouteNet, Src: src, Sinks: []core.Pin{sink}})
				commit(src, []core.Pin{sink})
			case shape < 0.8: // fanout net
				src, ok := freshOut()
				if !ok {
					return nil, exhausted(len(ops))
				}
				k := 2 + g.Rng.Intn(o.MaxFanout-1)
				avoid := map[device.Coord]bool{{Row: src.Row, Col: src.Col}: true}
				var sinks []core.Pin
				for len(sinks) < k {
					s, ok := freshIn(avoid)
					if !ok {
						return nil, exhausted(len(ops))
					}
					avoid[device.Coord{Row: s.Row, Col: s.Col}] = true
					sinks = append(sinks, s)
					usedIn[s] = true // reserve against the next pick
				}
				for _, s := range sinks {
					delete(usedIn, s) // commit re-adds
				}
				add(ScriptOp{Kind: OpRouteFanout, Src: src, Sinks: sinks})
				commit(src, sinks)
			default: // bus, routed as one negotiated batch
				w := 2 + g.Rng.Intn(o.MaxBusWidth-1)
				// Half the buses are clustered into a tight window (when the
				// array has room) so the negotiated batch lands inside one
				// partition region; the rest stay device-wide and tend to
				// become partition-crossing nets. Window picks that exhaust
				// fall back to device-wide placement — determinism is
				// preserved because the fallback is part of the same seeded
				// draw sequence.
				var window *win
				const winH, winW = 8, 10
				if g.Rows > winH && g.Cols > winW && g.Rng.Intn(2) == 0 {
					r0 := g.Rng.Intn(g.Rows - winH)
					c0 := g.Rng.Intn(g.Cols - winW)
					window = &win{r0: r0, c0: c0, r1: r0 + winH - 1, c1: c0 + winW - 1}
				}
				var srcs, dsts []core.Pin
				ok := true
				for b := 0; b < w && ok; b++ {
					var src, dst core.Pin
					if src, ok = freshOutIn(window); !ok && window != nil {
						src, ok = freshOut()
					}
					if !ok {
						break
					}
					usedOut[src] = true
					avoid := map[device.Coord]bool{{Row: src.Row, Col: src.Col}: true}
					if dst, ok = freshInWin(avoid, window); !ok && window != nil {
						dst, ok = freshIn(avoid)
					}
					if !ok {
						break
					}
					usedIn[dst] = true
					srcs, dsts = append(srcs, src), append(dsts, dst)
				}
				for i := range srcs {
					delete(usedOut, srcs[i])
				}
				for i := range dsts {
					delete(usedIn, dsts[i])
				}
				if !ok {
					return nil, exhausted(len(ops))
				}
				add(ScriptOp{Kind: OpRouteBus, Srcs: srcs, Dsts: dsts})
				for i := range srcs {
					commit(srcs[i], []core.Pin{dsts[i]})
				}
			}
		}
	}
	return ops, nil
}
