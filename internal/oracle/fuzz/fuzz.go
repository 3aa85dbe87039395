// Package fuzz is the randomized differential harness over the bitstream
// oracle: one seeded op script (route/unroute/reverse-unroute/reroute,
// single-sink/fanout/bus, core place/replace) is applied in lockstep to one
// board per row of scenario.Grid, and after every step the harness requires
// (1) all boards agree on the op's success or failure, (2) all boards report
// identical endpoint claims in identical order, (3) all boards are
// byte-identical at the frame level, and (4) the board passes a full oracle
// audit: structural invariants, physical continuity of every live claim,
// and no phantom nets. Any divergence is reported with the step, the op,
// and a structured PIP-level diff.
//
// Every board runs the same router, so there is nothing to reconcile: the
// oracle is the reference, and a second board exists only to catch a
// committed byte that depends on worker count. Boards that replay and
// boards that search would not stay in lockstep — see
// TestReplayKeepsRememberedDetour.
package fuzz

import (
	"bytes"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/oracle"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Options tune a differential run.
type Options struct {
	Seed  int64
	Steps int
	Rows  int // default 16
	Cols  int // default 24
	// CoreSlots reserves register-core sites for place/replace ops
	// (default 2).
	CoreSlots int
	// CheckEvery audits the oracle every N steps (default 1 — after
	// every op). Byte-equality across configs is always checked every
	// step regardless.
	CheckEvery int
	// NoC builds the fixed 3x3 mesh overlay (workload.NoCMesh* geometry,
	// two packet flows) on every board before the script runs, and mixes
	// mesh obstacle place/clear ops into the script.
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
	OpErrors int            // ops that failed — identically — on all boards
	Audits   int            // oracle audits performed
	PIPs     int            // PIPs on the final board
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

// board is one grid row's device + router + placed cores.
type board struct {
	name string
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
		// Deterministic name so every board builds the identical core.
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

func pinEndpoints(pins []core.Pin) []core.EndPoint {
	out := make([]core.EndPoint, len(pins))
	for i, p := range pins {
		out[i] = p
	}
	return out
}

// claimsEqual compares two claim lists element-wise: every board ran the
// identical script through identical code paths, so record order is
// deterministic and must match too.
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

// Run executes one seeded differential campaign over scenario.Grid and
// returns a summary, or the first divergence found.
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
	boards := make([]*board, len(scenario.Grid))
	for i, row := range scenario.Grid {
		dev, err := device.New(a, o.Rows, o.Cols)
		if err != nil {
			return nil, err
		}
		boards[i] = &board{
			name: row.Name,
			dev:  dev,
			rtr:  core.New(dev, row.Opts...),
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
				return nil, fmt.Errorf("fuzz: building NoC on %s: %w", row.Name, err)
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

	res := &Result{Ops: make(map[string]int)}
	ref := boards[0]
	for step, op := range script {
		res.Ops[op.Kind.String()]++
		// Every board is compared with the first, on every step: (1) the
		// op's outcome, (2) the live claims, order included, (3) the
		// committed frames.
		refErr := ref.apply(op, o.Rows, o.Cols)
		refClaims := ref.rtr.OracleClaims()
		refStream, err := ref.dev.FullConfig()
		if err != nil {
			return nil, err
		}
		for _, b := range boards[1:] {
			if berr := b.apply(op, o.Rows, o.Cols); (berr == nil) != (refErr == nil) {
				return nil, &DivergenceError{Step: step, Op: op, Detail: fmt.Sprintf(
					"board %s: err=%v, but board %s: err=%v", ref.name, refErr, b.name, berr)}
			}
			if !claimsEqual(refClaims, b.rtr.OracleClaims()) {
				return nil, &DivergenceError{Step: step, Op: op, Detail: fmt.Sprintf(
					"boards %s and %s disagree on live claims", ref.name, b.name)}
			}
			stream, err := b.dev.FullConfig()
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(refStream, stream) {
				diff, derr := oracle.DiffStreams(a, refStream, stream)
				if derr != nil {
					diff = nil
				}
				return nil, &DivergenceError{Step: step, Op: op, Diff: diff, Detail: fmt.Sprintf(
					"boards %s and %s are not byte-identical (%d PIPs differ)",
					ref.name, b.name, len(diff))}
			}
		}
		if refErr != nil {
			res.OpErrors++
		}
		// (4) Full oracle audit — structure + claim continuity + coverage —
		// of the one stream and claim list every board just matched. The
		// harness routes exclusively through recorded automatic calls, so
		// phantom-net detection (strict coverage) is sound here.
		if (step+1)%o.CheckEvery == 0 || step == len(script)-1 {
			if err := oracle.Audit(a, refStream, refClaims, true); err != nil {
				return nil, &DivergenceError{Step: step, Op: op,
					Detail: fmt.Sprintf("oracle audit failed: %v", err)}
			}
			res.Audits++
		}
		if (step+1)%1000 == 0 {
			logf("fuzz: %d/%d steps, %d op errors, %d audits", step+1, len(script), res.OpErrors, res.Audits)
		}
	}
	res.Steps = len(script)
	res.PIPs = ref.dev.OnPIPCount()
	return res, nil
}
