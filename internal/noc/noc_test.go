package noc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
)

// TestMeshTraversal3x3 builds the default 3x3 mesh and proves packets
// traverse it: every corner-to-corner and edge flow delivers in exactly
// hop-count cycles, with the board oracle-clean throughout.
func TestMeshTraversal3x3(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := [][4]int{
		{0, 0, 2, 2}, // corner to corner, XY: E,E then N,N
		{2, 0, 0, 2}, // opposite diagonal
		{0, 1, 2, 1}, // straight north
		{1, 2, 1, 0}, // straight west
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
	if h.Audits == 0 {
		t.Fatal("no oracle audits ran")
	}
}

// TestObstacleDetourAndRestore places an obstacle over the center node:
// the straight west-east flow must detour around it (BFS over live
// nodes), packets must still deliver, and removing the obstacle must
// restore both the XY path and the exact pre-obstacle configuration
// bytes.
func TestObstacleDetourAndRestore(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := h.AddFlow(1, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyFlow(id); err != nil {
		t.Fatal(err)
	}
	path, _ := h.Mesh.FlowPath(id)
	if len(path) != 3 {
		t.Fatalf("XY path %v, want straight 2-hop path", path)
	}
	before, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}

	cr, cc := h.Mesh.NodeSite(1, 1)
	if err := h.PlaceObstacle(cr, cc, 1, 1); err != nil {
		t.Fatalf("place obstacle: %v", err)
	}
	if !h.Mesh.FlowActive(id) {
		t.Fatal("flow inactive under obstacle; detour expected")
	}
	path, _ = h.Mesh.FlowPath(id)
	if len(path) != 5 {
		t.Fatalf("detour path %v, want 4 hops around the center", path)
	}
	for _, n := range path {
		if n.I == 1 && n.J == 1 {
			t.Fatalf("detour path %v passes through the occluded node", path)
		}
	}
	if err := h.VerifyFlow(id); err != nil {
		t.Fatalf("delivery under obstacle: %v", err)
	}

	if err := h.RemoveObstacle(cr, cc, 1, 1); err != nil {
		t.Fatalf("remove obstacle: %v", err)
	}
	path, _ = h.Mesh.FlowPath(id)
	if len(path) != 3 {
		t.Fatalf("post-removal path %v, want XY restored", path)
	}
	if err := h.VerifyFlow(id); err != nil {
		t.Fatalf("delivery after removal: %v", err)
	}
	after, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("configuration bytes differ after obstacle place+remove cycle")
	}
}

// TestBystanderGoesHome: a pin-to-pin net that is no part of the mesh but
// crosses it detours around each obstacle laid over its wires and, when the
// obstacle leaves, goes back to exactly the wires it held before — the
// router remembers where a displaced net came from. A 1x1 obstacle goes on
// every node in turn, and each removal must restore the pre-obstacle bytes.
// Two rows: a cold router, and one that routed and unrouted a few nets
// before the mesh was built, so its route memory is warm. The mesh bytes
// may depend on that history; restoring them must not.
func TestBystanderGoesHome(t *testing.T) {
	bySrc, bySink := core.NewPin(6, 2, arch.S0X), core.NewPin(6, 16, arch.S0F1)
	for warm, warmUp := range [][][2]core.Pin{
		nil, // a cold router
		{ // the shapes of the bystander and of mesh links, routed off the mesh
			{core.NewPin(13, 2, arch.S0X), core.NewPin(13, 16, arch.S0F1)},
			{core.NewPin(13, 2, arch.S0XQ), core.NewPin(13, 5, arch.S0F1)},
			{core.NewPin(11, 3, arch.S0YQ), core.NewPin(14, 3, arch.S0F2)},
		},
	} {
		cfg := DefaultConfig()
		dev, err := device.New(arch.NewVirtex(), cfg.Rows, cfg.Cols)
		if err != nil {
			t.Fatal(err)
		}
		r := core.New(dev)
		for _, n := range warmUp {
			if err := r.RouteNet(n[0], n[1]); err != nil {
				t.Fatal(err)
			}
			if err := r.Unroute(n[0]); err != nil {
				t.Fatal(err)
			}
		}
		h, err := NewOn(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}} {
			if _, err := h.AddFlow(f[0], f[1], f[2], f[3]); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.RouteNet(bySrc, bySink); err != nil {
			t.Fatal(err)
		}
		before, err := h.Stream()
		if err != nil {
			t.Fatal(err)
		}
		trace := func() string {
			t.Helper()
			net, err := r.Trace(bySrc)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(net.PIPs)
		}
		home := trace()
		moved := 0
		for i := 0; i < cfg.MeshRows; i++ {
			for j := 0; j < cfg.MeshCols; j++ {
				row, col := h.Mesh.NodeSite(i, j)
				if err := h.PlaceObstacle(row, col, 1, 1); err != nil {
					t.Fatalf("warm=%d: obstacle on (%d,%d): %v", warm, i, j, err)
				}
				if trace() != home {
					moved++
				}
				if err := h.RemoveObstacle(row, col, 1, 1); err != nil {
					t.Fatalf("warm=%d: remove obstacle on (%d,%d): %v", warm, i, j, err)
				}
				if after, _ := h.Stream(); !bytes.Equal(before, after) {
					t.Fatalf("warm=%d: obstacle on (%d,%d): bytes not restored (bystander %s, home %s)",
						warm, i, j, trace(), home)
				}
			}
		}
		if moved == 0 {
			t.Errorf("warm=%d: no obstacle moved the bystander; the test no longer detours anything", warm)
		}
		t.Logf("warm=%d: %d of 9 obstacles detoured the bystander", warm, moved)
	}
}

// TestPlaceObstaclePutsBackAfterFailedRipUp: the obstacle's region rip-up
// fails part-way (a net routed from a port bound elsewhere since, so its
// Unroute traces a pin that drives nothing) after retiring a pin-to-pin
// bystander crossing the rectangle. PlaceObstacle must put the bystander
// back before returning the error — no port remembers a pin-to-pin record.
func TestPlaceObstaclePutsBackAfterFailedRipUp(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// South-west of the mesh, clear of every node and link.
	bySrc, bySink := core.NewPin(13, 1, arch.S0X), core.NewPin(13, 7, arch.S0F1)
	if err := h.R.RouteNet(bySrc, bySink); err != nil {
		t.Fatal(err)
	}
	port := core.NewGroup("g").NewPort("o", core.Out)
	if err := port.Bind(core.NewPin(12, 3, arch.S1X)); err != nil { // inside the rectangle
		t.Fatal(err)
	}
	if err := h.R.RouteNet(port, core.NewPin(14, 6, arch.S1G1)); err != nil {
		t.Fatal(err)
	}
	if err := port.Bind(core.NewPin(15, 1, arch.S1X)); err != nil {
		t.Fatal(err)
	}
	if err := h.Mesh.PlaceObstacle(12, 3, 2, 2); err == nil {
		t.Fatal("obstacle over a net whose port was bound elsewhere was placed")
	}
	net, err := h.R.ReverseTrace(bySink)
	if err != nil {
		t.Fatalf("bystander net lost to a failed PlaceObstacle: %v", err)
	}
	if net.Source != bySrc {
		t.Fatalf("bystander traces to %v, want %v", net.Source, bySrc)
	}
}
