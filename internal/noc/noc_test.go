package noc

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
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

// TestPlaceObstaclePutsBackAfterFailedRipUp: the obstacle's region rip-up
// fails part-way (a pin record and a port record on one physical source:
// one net to the fabric, two to Unroute) after retiring a pin-to-pin
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
	src := core.NewPin(12, 3, arch.S1X) // inside the rectangle
	if err := h.R.RouteNet(src, core.NewPin(13, 6, arch.S1F1)); err != nil {
		t.Fatal(err)
	}
	port := core.NewGroup("g").NewPort("o", core.Out)
	if err := port.Bind(src); err != nil {
		t.Fatal(err)
	}
	if err := h.R.RouteNet(port, core.NewPin(14, 6, arch.S1G1)); err != nil {
		t.Fatal(err)
	}
	if err := h.Mesh.PlaceObstacle(12, 3, 2, 2); err == nil {
		t.Fatal("obstacle over a pin record and a port record on one source was placed")
	}
	net, err := h.R.ReverseTrace(bySink)
	if err != nil {
		t.Fatalf("bystander net lost to a failed PlaceObstacle: %v", err)
	}
	if net.Source != bySrc {
		t.Fatalf("bystander traces to %v, want %v", net.Source, bySrc)
	}
}
