package noc

import (
	"testing"
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
