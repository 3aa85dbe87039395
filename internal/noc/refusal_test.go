package noc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestPlaceObstacleRefusals: PlaceObstacle refuses what breaks the DyNoC
// precondition before it touches the device. An obstacle over the middle
// row of nodes would cut the mesh in two; a second obstacle on a tile
// another one holds overlaps it. Both are refused, and the device bytes
// and every flow's path stay as they were.
func TestPlaceObstacleRefusals(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var flows []int
	for _, f := range [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}, {0, 1, 2, 1}} {
		id, err := h.AddFlow(f[0], f[1], f[2], f[3])
		if err != nil {
			t.Fatalf("flow %v: %v", f, err)
		}
		flows = append(flows, id)
	}
	if err := h.PlaceObstacle(9, 11, 1, 1); err != nil { // the top-middle node
		t.Fatal(err)
	}
	paths := func() string {
		var s string
		for _, id := range flows {
			p, err := h.Mesh.FlowPath(id)
			s += fmt.Sprintf("%d:%v,%v ", id, p, err)
		}
		return s
	}
	before, err := h.Stream()
	if err != nil {
		t.Fatal(err)
	}
	beforePaths := paths()
	for _, c := range []struct {
		name                    string
		row, col, height, width int
		want                    string
	}{
		{"middle row", 6, 8, 1, 7, "would disconnect the mesh"},
		{"same tile", 9, 11, 1, 1, "overlaps the one at (9,11)"},
	} {
		err := h.Mesh.PlaceObstacle(c.row, c.col, c.height, c.width)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: PlaceObstacle = %v, want an error saying %q", c.name, err, c.want)
		}
		after, err := h.Stream()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: the refused placement changed the device", c.name)
		}
		if got := paths(); got != beforePaths {
			t.Errorf("%s: flows %s, were %s", c.name, got, beforePaths)
		}
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
}
