// Package scenario encodes the paper's worked examples (§3.1 routing
// levels, §3.3 replacement) as named, deterministic routing flows. Each
// scenario drives a fresh router from an empty device to a finished
// board, so its committed configuration stream is a pure function of the
// router options — which is what makes the flows usable both as golden
// bitstream regressions (internal/scenario tests) and as jverify's
// cross-configuration audit corpus.
package scenario

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/oracle"
)

// Scenario is one named deterministic routing flow.
type Scenario struct {
	Name string
	// Doc says which part of the paper the flow exercises.
	Doc        string
	Rows, Cols int
	Drive      func(r *core.Router) error
}

// All returns the scenario corpus in fixed order.
func All() []Scenario {
	return []Scenario{
		{
			Name: "quickstart",
			Doc:  "§3.1 level-1 single connection, routed automatically",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				return r.RouteNet(core.NewPin(5, 7, arch.S1YQ), core.NewPin(6, 8, arch.S0F3))
			},
		},
		{
			Name: "template",
			Doc:  "§3.1 level-2 explicit template route (OUTMUX,EAST1,NORTH1,CLBIN)",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				tmpl, err := core.ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
				if err != nil {
					return err
				}
				return r.RouteTemplate(core.NewPin(5, 7, arch.S1YQ), arch.S0F3, tmpl)
			},
		},
		{
			Name: "fanout",
			Doc:  "one source driving three sinks, shared-trunk branching",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				return r.RouteFanout(core.NewPin(4, 6, arch.S0YQ), []core.EndPoint{
					core.NewPin(4, 12, arch.S0F1),
					core.NewPin(8, 9, arch.S1G2),
					core.NewPin(10, 5, arch.S0F3),
				})
			},
		},
		{
			Name: "bus",
			Doc:  "4-bit bus as one negotiated batch",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				var srcs, dsts []core.EndPoint
				for b := 0; b < 4; b++ {
					srcs = append(srcs, core.NewPin(3+b, 4, arch.S1YQ))
					dsts = append(dsts, core.NewPin(3+b, 18, arch.S0F2))
				}
				return r.RouteBusBatch(srcs, dsts)
			},
		},
		{
			Name: "replace",
			Doc:  "§3.3 core replacement: register implemented, routed, swapped in place",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				reg, err := cores.NewRegister("scenario_reg", 4)
				if err != nil {
					return err
				}
				if err := reg.Place(7, 11); err != nil {
					return err
				}
				if err := reg.Implement(r); err != nil {
					return err
				}
				if err := r.RouteNet(reg.Ports("q")[0], core.NewPin(7, 16, arch.S0F1)); err != nil {
					return err
				}
				return cores.Replace(r, reg, 7, 11, []string{"d", "q"}, nil)
			},
		},
		{
			Name: "noc",
			Doc:  "dynamic NoC overlay: mesh build, obstacle over a node, removal restores the original bytes",
			Rows: 16, Cols: 24,
			Drive: func(r *core.Router) error {
				mesh, err := cores.NewNoC(r, "noc", 2, 3, 3, 8, 3, 0)
				if err != nil {
					return err
				}
				if err := mesh.Build(); err != nil {
					return err
				}
				if _, err := mesh.AddFlow(0, 0, 1, 2); err != nil {
					return err
				}
				// Occlude the middle of the packet's XY path: the flow
				// detours over the north row. The node's links go down with
				// it; no other net crosses the tile, so none detours.
				row, col := mesh.NodeSite(0, 1)
				if err := mesh.PlaceObstacle(row, col, 1, 1); err != nil {
					return err
				}
				// Removing it must put every net back on its original wires,
				// so the committed stream equals the never-obstructed build.
				return mesh.RemoveObstacle(row, col, 1, 1)
			},
		},
	}
}

// ByName finds a scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Grid is the one cross-configuration grid: every scenario, every NoC churn
// script and every step of the differential fuzz harness must come out
// byte-for-byte the same under each row. Worker count is the only router
// option that varies without being meant to move bytes.
var Grid = []struct {
	Name string
	Opts []core.Option
}{
	{"par-1", []core.Option{core.WithParallelism(1)}},
	{"par-8", []core.Option{core.WithParallelism(8)}},
}

// Run executes the scenario on a fresh device under the given router
// options and returns the committed configuration stream plus the
// router's live endpoint claims for oracle auditing.
func (s Scenario) Run(opts ...core.Option) ([]byte, []oracle.Claim, error) {
	a := arch.NewVirtex()
	dev, err := device.New(a, s.Rows, s.Cols)
	if err != nil {
		return nil, nil, err
	}
	r := core.New(dev, opts...)
	if err := s.Drive(r); err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	stream, err := dev.FullConfig()
	if err != nil {
		return nil, nil, err
	}
	return stream, r.OracleClaims(), nil
}
