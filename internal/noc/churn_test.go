package noc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// dirBetweenForTest gives the mesh direction from node a to adjacent
// node b.
func dirBetweenForTest(a, b cores.NodeID) cores.Direction {
	switch {
	case b.J == a.J+1:
		return cores.East
	case b.J == a.J-1:
		return cores.West
	case b.I == a.I+1:
		return cores.North
	}
	return cores.South
}

// TestMeshTraversal4x4 scales the overlay to a 4x4 mesh (16 nodes, 48
// directed links) and proves corner-to-corner and inner flows all deliver
// in exactly hop-count cycles.
func TestMeshTraversal4x4(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeshRows, cfg.MeshCols = 4, 4
	cfg.BaseRow, cfg.BaseCol = 2, 2
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := [][4]int{
		{0, 0, 3, 3}, // corner to corner, 6 hops
		{3, 0, 0, 3},
		{2, 1, 1, 2},
		{0, 2, 3, 2}, // straight north
	}
	for _, f := range flows {
		id, err := h.AddFlow(f[0], f[1], f[2], f[3])
		if err != nil {
			t.Fatalf("flow %v: %v", f, err)
		}
		if err := h.VerifyFlow(id); err != nil {
			t.Errorf("flow %v: %v", f, err)
		}
	}
}

// TestHopByHopXY traces one packet through the fabric flip-flop by
// flip-flop: on cycle c the pulse must sit in exactly the out-register of
// the c-th hop of the XY path — earlier registers already clear, later
// ones not yet set.
func TestHopByHopXY(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := h.AddFlow(0, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	path, err := h.Mesh.FlowPath(id)
	if err != nil {
		t.Fatal(err)
	}
	// Column-first XY: east twice, then north twice.
	want := "[(0,0) (0,1) (0,2) (1,2) (2,2)]"
	if fmt.Sprintf("%v", path) != want {
		t.Fatalf("XY path %v, want %s", path, want)
	}
	// The out-register carrying hop m is the Out port of path[m] toward
	// path[m+1]; it latches at cycle m+1.
	hops := len(path) - 1
	outFF := make([]core.Pin, hops)
	for m := 0; m+1 < len(path); m++ {
		nd := h.Mesh.NodeAt(path[m].I, path[m].J)
		d := dirBetweenForTest(path[m], path[m+1])
		outFF[m] = nd.OutPort(d).Pins()[0]
	}
	inj, err := h.Mesh.InjectPin(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Sim.Refresh()
	if err := h.Sim.Force(inj.Row, inj.Col, inj.W, true); err != nil {
		t.Fatal(err)
	}
	if err := h.Sim.Step(); err != nil {
		t.Fatal(err)
	}
	if err := h.Sim.Force(inj.Row, inj.Col, inj.W, false); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= hops; cycle++ {
		if cycle > 1 {
			if err := h.Sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for m, pin := range outFF {
			v, err := h.Sim.Value(pin.Row, pin.Col, pin.W)
			if err != nil {
				t.Fatal(err)
			}
			if wantHigh := m == cycle-1; v != wantHigh {
				t.Errorf("cycle %d: hop %d register (%d,%d).w%d = %v, want %v",
					cycle, m, pin.Row, pin.Col, pin.W, v, wantHigh)
			}
		}
	}
}

// TestAllSingleNodeObstacles places a 1x1 obstacle over every node of the
// 3x3 mesh in turn — every such placement preserves connectivity, so each
// must succeed, active flows must keep delivering around it, and removing
// it must restore the pre-obstacle bytes exactly.
func TestAllSingleNodeObstacles(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, 2)
	for _, f := range [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}} {
		id, err := h.AddFlow(f[0], f[1], f[2], f[3])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r, c := h.Mesh.NodeSite(i, j)
			if err := h.PlaceObstacle(r, c, 1, 1); err != nil {
				t.Fatalf("obstacle on node (%d,%d): %v", i, j, err)
			}
			for _, id := range ids {
				if !h.Mesh.FlowActive(id) {
					// Only an occluded endpoint may deactivate a flow.
					path := [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}}[id]
					if !(path[0] == i && path[1] == j) && !(path[2] == i && path[3] == j) {
						t.Errorf("obstacle on (%d,%d): flow %d inactive with both endpoints live", i, j, id)
					}
					continue
				}
				if err := h.VerifyFlow(id); err != nil {
					t.Errorf("obstacle on (%d,%d): flow %d: %v", i, j, id, err)
				}
			}
			if err := h.RemoveObstacle(r, c, 1, 1); err != nil {
				t.Fatalf("remove obstacle on node (%d,%d): %v", i, j, err)
			}
			after, err := h.Stream()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("obstacle cycle on node (%d,%d) did not restore the configuration", i, j)
			}
		}
	}
}

// TestNoCChurnSmoke is DyNoC's contract on the default 3x3 mesh: two
// crossing corner flows keep delivering at exact hop-count latency before
// and after every event of a seeded connectivity-preserving obstacle churn
// (each event audited against the oracle), and clearing the obstacles
// still standing returns the board to its pre-churn bytes.
func TestNoCChurnSmoke(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var flows []int
	for _, f := range [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}} {
		id, err := h.AddFlow(f[0], f[1], f[2], f[3])
		if err != nil {
			t.Fatalf("flow %v: %v", f, err)
		}
		flows = append(flows, id)
	}
	baseline, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}
	verify := func(when string) {
		t.Helper()
		for _, id := range flows {
			if err := h.VerifyFlow(id); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
	}
	verify("before churn")
	script := workload.New(1, h.Cfg.Rows, h.Cfg.Cols).NoCChurn(8)
	for _, op := range script {
		ev := ChurnEvent{Place: op.Kind == workload.OpNoCObstacle,
			Row: op.Rect[0], Col: op.Rect[1], Height: op.Rect[2], Width: op.Rect[3]}
		if err := h.Apply(ev); err != nil {
			t.Fatalf("event %d (%s at %d,%d): %v", op.Serial, op.Kind, ev.Row, ev.Col, err)
		}
		verify(fmt.Sprintf("after event %d (%s)", op.Serial, op.Kind))
	}
	for _, rect := range h.Mesh.Obstacles() {
		if err := h.RemoveObstacle(rect.Row, rect.Col, rect.Height, rect.Width); err != nil {
			t.Fatalf("final clear at (%d,%d): %v", rect.Row, rect.Col, err)
		}
	}
	final, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseline, final) {
		t.Error("board not byte-restored after clearing all obstacles")
	}
	if len(script) != 8 || h.Audits != 13 {
		t.Errorf("%d churn events, %d oracle audits; pinned 8, 13", len(script), h.Audits)
	}
}

// TestChurnDeterminism runs one fixed churn script under every router
// configuration of scenario.Grid (parallelism 1 and 8) and requires the
// full configuration bytes to be identical across configs after every
// event: the overlay's mutations are byte-deterministic whatever the host
// router options.
func TestChurnDeterminism(t *testing.T) {
	script := []ChurnEvent{
		{Place: true, Row: 6, Col: 11, Height: 1, Width: 1}, // center node
		{Place: false, Row: 6, Col: 11, Height: 1, Width: 1},
		{Place: true, Row: 3, Col: 11, Height: 1, Width: 1}, // south edge node
		{Place: true, Row: 6, Col: 11, Height: 1, Width: 2}, // center + fabric east of it
		{Place: false, Row: 3, Col: 11, Height: 1, Width: 1},
		{Place: false, Row: 6, Col: 11, Height: 1, Width: 2},
	}
	// The grid the golden scenarios pin: parallelism 1 and 8.
	var ref [][]byte
	for ci, cfg := range scenario.Grid {
		h, err := New(DefaultConfig(), cfg.Opts...)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for _, f := range [][4]int{{1, 0, 1, 2}, {0, 1, 2, 1}} {
			if _, err := h.AddFlow(f[0], f[1], f[2], f[3]); err != nil {
				t.Fatalf("config %d: flow %v: %v", ci, f, err)
			}
		}
		var streams [][]byte
		s, err := h.Stream()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
		for ei, e := range script {
			if err := h.Apply(e); err != nil {
				t.Fatalf("config %d event %d: %v", ci, ei, err)
			}
			s, err := h.Stream()
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, s)
		}
		if ci == 0 {
			ref = streams
			continue
		}
		for si := range streams {
			if !bytes.Equal(ref[si], streams[si]) {
				t.Errorf("config %d diverges from config 0 at step %d", ci, si)
			}
		}
	}
}
