// Package fuzz is the randomized differential harness over the bitstream
// oracle: one seeded op script (route/unroute/reverse-unroute/reroute,
// single-sink/fanout/bus, core place/replace) is applied in lockstep to
// several router configurations — route cache on and off, parallelism 1
// and N — and after every step the harness requires (1) all
// configurations agree on the op's success or failure, (2) all
// configurations report identical endpoint claims, (3) configurations
// sharing a cache mode are byte-identical at the frame level (parallelism
// must never change the committed bitstream), and (4) every cache mode's
// board passes a full oracle audit: structural invariants, physical
// continuity of every live claim, and no phantom nets. Any divergence is
// reported with the step, the op, and a structured PIP-level diff.
//
// Byte-identity is deliberately NOT required across cache modes. The
// harness itself discovered why (documented in TestCacheModesBytesDiverge):
// after intervening churn, a reroute of previously-torn-down endpoints
// replays the originally-learned path under cache-on but re-searches under
// cache-off, and the fresh search — correctly — picks a path suited to the
// board as it is now. Both boards are oracle-equivalent (same claims, all
// physically continuous, no contention, no phantoms); demanding equal
// bytes would demand the cache not work. Equivalence across cache modes is
// therefore checked at the netlist level, by the oracle.
//
// A second harness discovery follows from the first: claim *order* can
// also legally differ across cache modes. RipUpRegion classifies
// third-party nets as crossing a replacement rectangle by their physical
// paths, and since those paths legally differ across cache modes, a core
// replacement may rip-and-restore a net on one mode but not the other;
// the restored net re-records at the tail of the connection list. The
// endpoints are untouched, so claims are compared order-exactly within a
// cache mode but as a multiset across modes.
//
// Third harness discovery, same root: op *outcomes* can legally differ
// across cache modes under congestion. The physically different boards
// differ in residual routability, so near capacity a route can succeed on
// one cache mode and exhaust the maze on the other. Outcome agreement is
// therefore required exactly within a cache mode, while a cross-mode
// outcome split on an atomic route-type op is reconciled: the op is
// undone on the boards where it succeeded, the event is counted in
// Result.Reconciled, and lockstep resumes with the net down everywhere.
// A cross-mode split on any other op kind is still a divergence.
package fuzz

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// Config is one router configuration under differential test.
type Config struct {
	Name        string
	Cache       core.CacheMode
	Parallelism int
}

// DefaultConfigs is the standard grid: cache {on, off} x parallelism
// {1, 8}.
func DefaultConfigs() []Config {
	return []Config{
		{Name: "cache-on/par-1", Cache: core.CacheOn, Parallelism: 1},
		{Name: "cache-on/par-8", Cache: core.CacheOn, Parallelism: 8},
		{Name: "cache-off/par-1", Cache: core.CacheOff, Parallelism: 1},
		{Name: "cache-off/par-8", Cache: core.CacheOff, Parallelism: 8},
	}
}

// Options tune a differential run.
type Options struct {
	Seed  int64
	Steps int
	Rows  int // default 16
	Cols  int // default 24
	// CoreSlots reserves register-core sites for place/replace ops
	// (default 2).
	CoreSlots int
	// Configs under test (default DefaultConfigs).
	Configs []Config
	// CheckEvery audits the oracle every N steps (default 1 — after
	// every op). Byte-equality across configs is always checked every
	// step regardless.
	CheckEvery int
	// NoC builds the fixed 3x3 mesh overlay (workload.NoCMesh* geometry,
	// two packet flows) on every board before the script runs, and mixes
	// mesh obstacle place/clear ops into the script. The overlay forces
	// the route cache off for its own mutations, so boards sharing a cache
	// mode stay byte-identical through obstacle churn.
	NoC bool
	// MaxLive caps concurrently live script nets (0 = generator default).
	// NoC runs keep it modest: obstacle placement must be able to detour
	// every crossing net, so the board cannot start near wire capacity.
	MaxLive int
	// Log, when set, receives progress lines.
	Log func(format string, args ...interface{})
}

// Result summarizes a clean differential run.
type Result struct {
	Steps    int
	Ops      map[string]int // op kind -> count
	OpErrors int            // ops that failed — identically — on all configs
	// Reconciled counts route-type ops whose outcome legally split across
	// cache modes (succeeded on one physical board, exhausted the maze on
	// the other) and were undone everywhere to restore lockstep.
	Reconciled int
	Audits     int // oracle audits performed
	PIPs       int // PIPs on the final board
}

// DivergenceError reports the first step at which the configurations (or
// the oracle) disagreed.
type DivergenceError struct {
	Step   int
	Op     workload.ScriptOp
	Detail string
	// Diff is the structured PIP-for-PIP difference when two boards
	// diverged at the frame level (nil for error-disagreement or oracle
	// violations).
	Diff []oracle.DiffEntry
}

// Error renders the divergence.
func (e *DivergenceError) Error() string {
	s := fmt.Sprintf("fuzz: step %d (%s): %s", e.Step, e.Op.Kind, e.Detail)
	for i, d := range e.Diff {
		if i >= 6 {
			s += fmt.Sprintf("\n  ... and %d more", len(e.Diff)-i)
			break
		}
		side := "only in A"
		if d.InB {
			side = "only in B"
		}
		s += fmt.Sprintf("\n  PIP (%d,%d) w%d->w%d %s", d.PIP.Row, d.PIP.Col, d.PIP.From, d.PIP.To, side)
	}
	return s
}

// board is one configuration's device + router + placed cores.
type board struct {
	cfg  Config
	dev  *device.Device
	rtr  *core.Router
	regs map[int]*cores.Register
	noc  *cores.NoC
}

func (b *board) apply(op workload.ScriptOp, rows, cols int) error {
	switch op.Kind {
	case workload.OpRouteNet, workload.OpReroute:
		if len(op.Sinks) == 1 {
			return b.rtr.RouteNet(op.Src, op.Sinks[0])
		}
		return b.rtr.RouteFanout(op.Src, pinEndpoints(op.Sinks))
	case workload.OpRouteFanout:
		return b.rtr.RouteFanout(op.Src, pinEndpoints(op.Sinks))
	case workload.OpRouteBus:
		return b.rtr.RouteBusBatch(pinEndpoints(op.Srcs), pinEndpoints(op.Dsts))
	case workload.OpUnroute:
		return b.rtr.Unroute(op.Src)
	case workload.OpReverseUnroute:
		return b.rtr.ReverseUnroute(op.Sinks[0])
	case workload.OpCoreNew:
		// Deterministic name so every config builds the identical core.
		reg, err := cores.NewRegister(fmt.Sprintf("reg_s%d_%d", op.Slot, op.Serial), 4)
		if err != nil {
			return err
		}
		row, col := workload.CoreSlotSite(op.Slot, rows, cols)
		if err := reg.Place(row, col); err != nil {
			return err
		}
		if err := reg.Implement(b.rtr); err != nil {
			return err
		}
		// Register the core before routing its output: even if the route
		// fails, the core is on the board and later replace ops must see
		// it (identically in every config).
		b.regs[op.Slot] = reg
		return b.rtr.RouteNet(reg.Ports("q")[0], op.Sinks[0])
	case workload.OpCoreReplace:
		reg := b.regs[op.Slot]
		if reg == nil {
			return fmt.Errorf("fuzz: no core at slot %d", op.Slot)
		}
		row, col := workload.CoreSlotSite(op.Slot, rows, cols)
		return cores.Replace(b.rtr, reg, row, col, []string{"d", "q"}, nil)
	case workload.OpNoCObstacle:
		return b.noc.PlaceObstacle(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3])
	case workload.OpNoCClear:
		return b.noc.RemoveObstacle(op.Rect[0], op.Rect[1], op.Rect[2], op.Rect[3])
	default:
		return fmt.Errorf("fuzz: unknown op kind %d", op.Kind)
	}
}

// undo reverses a successfully applied atomic route-type op. It is the
// reconciliation step for a legal cross-mode outcome split: the routed net
// comes down so every board agrees it is not live.
func (b *board) undo(op workload.ScriptOp) error {
	switch op.Kind {
	case workload.OpRouteNet, workload.OpReroute, workload.OpRouteFanout:
		return b.rtr.Unroute(op.Src)
	case workload.OpRouteBus:
		for _, s := range op.Srcs {
			if err := b.rtr.Unroute(s); err != nil {
				return err
			}
		}
		return nil
	case workload.OpCoreNew:
		// The register stays placed and implemented (that part is
		// deterministic and succeeded everywhere); only its output net
		// comes down. Forget the remembered record too, or a later
		// replace would resurrect the net on this board alone.
		q := b.regs[op.Slot].Ports("q")[0]
		if err := b.rtr.Unroute(q); err != nil {
			return err
		}
		b.rtr.ForgetRemembered(q)
		return nil
	default:
		return fmt.Errorf("fuzz: op kind %s is not reconcilable", op.Kind)
	}
}

// reconcilable reports whether a cross-mode outcome split on this op kind
// can be repaired by undoing it where it succeeded.
func reconcilable(k workload.ScriptOpKind) bool {
	switch k {
	case workload.OpRouteNet, workload.OpReroute, workload.OpRouteFanout,
		workload.OpRouteBus, workload.OpCoreNew:
		return true
	}
	return false
}

func pinEndpoints(pins []core.Pin) []core.EndPoint {
	out := make([]core.EndPoint, len(pins))
	for i, p := range pins {
		out[i] = p
	}
	return out
}

// claimsEqual compares two claim lists element-wise. Within a cache mode
// both routers ran the identical script through identical code paths, so
// record order is deterministic and must match too.
func claimsEqual(a, b []oracle.Claim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || len(a[i].Sinks) != len(b[i].Sinks) {
			return false
		}
		for j := range a[i].Sinks {
			if a[i].Sinks[j] != b[i].Sinks[j] {
				return false
			}
		}
	}
	return true
}

// claimKey renders a claim as a canonical comparison key.
func claimKey(c oracle.Claim) string {
	s := fmt.Sprintf("(%d,%d,%d)->", c.Source.Row, c.Source.Col, c.Source.W)
	for _, p := range c.Sinks {
		s += fmt.Sprintf("(%d,%d,%d)", p.Row, p.Col, p.W)
	}
	return s
}

// claimsEquivalent compares two claim lists as multisets. Across cache
// modes record order can legally differ (see the package comment on
// RipUpRegion), but the set of live nets must not.
func claimsEquivalent(a, b []oracle.Claim) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = claimKey(a[i])
		kb[i] = claimKey(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// sortedReps returns the representative board indices in deterministic
// order.
func sortedReps(reps map[core.CacheMode]int) []int {
	var out []int
	for _, i := range reps {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Run executes one seeded differential campaign and returns a summary, or
// the first divergence found.
func Run(o Options) (*Result, error) {
	if o.Rows == 0 {
		o.Rows = 16
	}
	if o.Cols == 0 {
		o.Cols = 24
	}
	if o.CoreSlots == 0 {
		o.CoreSlots = 2
	}
	if len(o.Configs) == 0 {
		o.Configs = DefaultConfigs()
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 1
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	script, err := workload.New(o.Seed, o.Rows, o.Cols).Script(workload.ScriptOptions{
		Steps:     o.Steps,
		CoreSlots: o.CoreSlots,
		NoC:       o.NoC,
		MaxLive:   o.MaxLive,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz: generating script: %w", err)
	}

	a := arch.NewVirtex()
	boards := make([]*board, len(o.Configs))
	for i, cfg := range o.Configs {
		dev, err := device.New(a, o.Rows, o.Cols)
		if err != nil {
			return nil, err
		}
		boards[i] = &board{
			cfg: cfg,
			dev: dev,
			rtr: core.New(dev,
				core.WithRouteCache(cfg.Cache),
				core.WithParallelism(cfg.Parallelism)),
			regs: make(map[int]*cores.Register),
		}
		if o.NoC {
			mesh, err := cores.NewNoC(boards[i].rtr, "noc",
				workload.NoCMeshRows, workload.NoCMeshCols,
				workload.NoCBaseRow, workload.NoCBaseCol, workload.NoCPitch, 0)
			if err != nil {
				return nil, err
			}
			if err := mesh.Build(); err != nil {
				return nil, fmt.Errorf("fuzz: building NoC on %s: %w", cfg.Name, err)
			}
			// Two fixed flows keep forwarding-LUT reprogramming in play
			// through every obstacle event.
			if _, err := mesh.AddFlow(0, 0, 2, 2); err != nil {
				return nil, err
			}
			if _, err := mesh.AddFlow(2, 0, 0, 2); err != nil {
				return nil, err
			}
			boards[i].noc = mesh
		}
	}

	// modeRep maps each cache mode to its first (representative) board —
	// fixed for the whole run.
	modeRep := make(map[core.CacheMode]int)
	for i, b := range boards {
		if _, seen := modeRep[b.cfg.Cache]; !seen {
			modeRep[b.cfg.Cache] = i
		}
	}

	res := &Result{Ops: make(map[string]int)}
	for step, op := range script {
		res.Ops[op.Kind.String()]++
		errs := make([]error, len(boards))
		for i, b := range boards {
			errs[i] = b.apply(op, o.Rows, o.Cols)
		}
		// (1) Outcome agreement. Within a cache mode the boards are
		// byte-identical, so the outcome must match exactly. Across modes
		// the boards legally differ physically, so near capacity a
		// route-type op can split — reconcile by undoing it where it
		// succeeded; any other split is a divergence.
		for i, b := range boards {
			j := modeRep[b.cfg.Cache]
			if (errs[i] == nil) != (errs[j] == nil) {
				return nil, &DivergenceError{Step: step, Op: op, Detail: fmt.Sprintf(
					"config %s: err=%v, but same-cache config %s: err=%v",
					boards[j].cfg.Name, errs[j], boards[i].cfg.Name, errs[i])}
			}
		}
		split := false
		for _, i := range sortedReps(modeRep) {
			if (errs[i] == nil) != (errs[0] == nil) {
				split = true
			}
		}
		switch {
		case split && !reconcilable(op.Kind):
			var detail string
			for _, i := range sortedReps(modeRep) {
				detail += fmt.Sprintf(" %s: err=%v;", boards[i].cfg.Name, errs[i])
			}
			return nil, &DivergenceError{Step: step, Op: op,
				Detail: "non-reconcilable cross-mode outcome split:" + detail}
		case split:
			for i, b := range boards {
				if errs[i] != nil {
					continue
				}
				if err := b.undo(op); err != nil {
					return nil, &DivergenceError{Step: step, Op: op,
						Detail: fmt.Sprintf("reconciling %s failed: %v", b.cfg.Name, err)}
				}
			}
			res.Reconciled++
			logf("fuzz: step %d (%s): cross-mode outcome split, reconciled", step, op.Kind)
		case errs[0] != nil:
			res.OpErrors++
		}
		// (2) Claim agreement: every configuration must believe the same
		// nets are live with the same endpoints — order-exactly within a
		// cache mode, as a multiset across modes (region rip-up/restore
		// can legally reorder records across modes; see package comment).
		claims := make([][]oracle.Claim, len(boards))
		for i, b := range boards {
			claims[i] = b.rtr.OracleClaims()
		}
		for i, b := range boards {
			j := modeRep[b.cfg.Cache]
			if j == i {
				if i != 0 && !claimsEquivalent(claims[0], claims[i]) {
					return nil, &DivergenceError{Step: step, Op: op, Detail: fmt.Sprintf(
						"configs %s and %s disagree on the set of live claims",
						boards[0].cfg.Name, boards[i].cfg.Name)}
				}
				continue
			}
			if !claimsEqual(claims[j], claims[i]) {
				return nil, &DivergenceError{Step: step, Op: op, Detail: fmt.Sprintf(
					"configs %s and %s disagree on live claims",
					boards[j].cfg.Name, boards[i].cfg.Name)}
			}
		}
		// (3) Frame-level byte identity within each cache mode: the
		// parallel negotiated router guarantees the committed bitstream is
		// independent of worker count.
		streams := make([][]byte, len(boards))
		for i, b := range boards {
			if streams[i], err = b.dev.FullConfig(); err != nil {
				return nil, err
			}
		}
		for i, b := range boards {
			j := modeRep[b.cfg.Cache]
			if j == i {
				continue
			}
			if !bytes.Equal(streams[j], streams[i]) {
				diff, derr := oracle.DiffStreams(a, streams[j], streams[i])
				if derr != nil {
					diff = nil
				}
				return nil, &DivergenceError{Step: step, Op: op, Diff: diff, Detail: fmt.Sprintf(
					"boards %s and %s are not byte-identical (%d PIPs differ)",
					boards[j].cfg.Name, boards[i].cfg.Name, len(diff))}
			}
		}
		// (4) Full oracle audit of each cache mode's representative board:
		// structure + claim continuity + coverage. The harness routes
		// exclusively through recorded automatic calls, so phantom-net
		// detection (strict coverage) is sound here.
		if (step+1)%o.CheckEvery == 0 || step == len(script)-1 {
			for _, i := range sortedReps(modeRep) {
				if err := oracle.Audit(a, streams[i], claims[i], true); err != nil {
					return nil, &DivergenceError{Step: step, Op: op,
						Detail: fmt.Sprintf("oracle audit of %s failed: %v", boards[i].cfg.Name, err)}
				}
				res.Audits++
			}
		}
		if (step+1)%1000 == 0 {
			logf("fuzz: %d/%d steps, %d op errors, %d audits", step+1, len(script), res.OpErrors, res.Audits)
		}
	}
	res.Steps = len(script)
	res.PIPs = boards[0].dev.OnPIPCount()
	return res, nil
}
