package cores

// Dynamic NoC overlay: a packet-switched mesh laid over the routed fabric,
// after DyNoC (Bobda et al.): CLB router nodes wired neighbor-to-neighbor
// through the normal JRoute API, with run-time obstacle placement. Placing
// an obstacle rips up the occluded nodes and every net crossing the
// rectangle (via RipUpRegion), reserves the rectangle against the router
// (AddAvoid), and re-routes the surviving links around it — the mesh stays
// connected as long as the obstacle leaves the node graph connected
// (DyNoC's surrounded-obstacle guarantee). Removing the obstacle restores
// the original configuration byte-for-byte: nodes are re-implemented, the
// downed links reconnected from port memory, and the detoured nets ripped
// and restored — each detour's record keeps the path it was pushed off as
// its home, and the router replays that first.

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/maze"
)

// Direction indexes the four mesh ports of a router node.
type Direction int

// Mesh directions. East increases the column index, North the row index.
const (
	East Direction = iota
	North
	West
	South
)

// String returns "E", "N", "W" or "S".
func (d Direction) String() string { return [...]string{"E", "N", "W", "S"}[d] }

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction { return (d + 2) % 4 }

func (d Direction) delta() (di, dj int) {
	switch d {
	case East:
		return 0, 1
	case North:
		return 1, 0
	case West:
		return 0, -1
	}
	return -1, 0
}

// InjectIn is the fifth forwarding input of a node: the local packet
// source, alongside the four directional inputs indexed by Direction.
const InjectIn = 4

// lutInIdx[out][in] gives the LUT input index (1..4) that carries traffic
// from input `in` (Direction, or InjectIn) into the output LUT of
// direction `out`; 0 means the pair does not exist (packets never U-turn).
// Each output LUT spends its four inputs on the three non-opposite
// directions plus the local inject, so all 16 LUT inputs of the CLB are
// used and any turn XY routing needs is available.
var lutInIdx = [4][5]int{
	East:  {0, 3, 1, 2, 4},
	North: {3, 0, 2, 1, 4},
	West:  {1, 3, 0, 2, 4},
	South: {3, 1, 2, 0, 4},
}

// RouterNode is the parameterizable mesh-router core: one CLB whose four
// LUTs each drive one outgoing direction through the slice flip-flops
// (E=S0XQ, N=S0YQ, W=S1XQ, S=S1YQ), so every hop costs exactly one clock.
// Forwarding is pure run-time parameterization: enabling a (out, in) pair
// rewrites the output LUT to the OR of its enabled inputs, no re-routing.
//
// Groups: "out" — four Out ports by Direction; "in" — four In ports by
// Direction, each bound to the three LUT inputs that observe that
// neighbor; "inject" — one In port bound to input 4 of all four LUTs.
type RouterNode struct {
	Base
	Clock int
	fwd   [4][5]bool
}

// NewRouterNode creates an unplaced 1x1 router node clocked by global
// clock g.
func NewRouterNode(name string, g int) *RouterNode {
	nd := &RouterNode{Clock: g}
	nd.init(name, 1, 1)
	return nd
}

// outLUT maps an output direction to its LUT index (E=S0F, N=S0G, W=S1F,
// S=S1G).
func (nd *RouterNode) outLUT(d Direction) int { return int(d) }

func (nd *RouterNode) truth(out Direction) uint16 {
	var enabled [4]bool
	any := false
	for in := 0; in < 5; in++ {
		if nd.fwd[out][in] {
			enabled[lutInIdx[out][in]-1] = true
			any = true
		}
	}
	if !any {
		return TruthZero
	}
	return TruthFromFunc(func(a, b, c, d bool) bool {
		in := [4]bool{a, b, c, d}
		for i, e := range enabled {
			if e && in[i] {
				return true
			}
		}
		return false
	})
}

// OutPort returns the Out port of direction d.
func (nd *RouterNode) OutPort(d Direction) *core.Port { return nd.port("out", int(d), core.Out) }

// InPort returns the In port of direction d (the side the neighbor in
// direction d drives).
func (nd *RouterNode) InPort(d Direction) *core.Port { return nd.port("in", int(d), core.In) }

// InjectPort returns the local packet-injection port.
func (nd *RouterNode) InjectPort() *core.Port { return nd.port("inject", 0, core.In) }

// Implement configures the four forwarding LUTs, binds the ports, and
// routes the clock to both slices.
func (nd *RouterNode) Implement(r *core.Router) (err error) {
	if err := nd.begin(r); err != nil {
		return err
	}
	defer nd.settle(r, nd, &err)
	for d := East; d <= South; d++ {
		n := nd.outLUT(d)
		if err := nd.setLUT(r.Dev, nd.row, nd.col, n, nd.truth(d)); err != nil {
			return err
		}
		if err := nd.port("out", int(d), core.Out).Bind(core.NewPin(nd.row, nd.col, ffOutPin(n))); err != nil {
			return err
		}
	}
	for din := East; din <= South; din++ {
		var pins []core.Pin
		for out := East; out <= South; out++ {
			idx := lutInIdx[out][din]
			if idx == 0 {
				continue
			}
			n := nd.outLUT(out)
			pins = append(pins, lutIn(nd.row, nd.col, n, idx))
		}
		if err := nd.port("in", int(din), core.In).Bind(pins...); err != nil {
			return err
		}
	}
	var inj []core.Pin
	for out := East; out <= South; out++ {
		n := nd.outLUT(out)
		inj = append(inj, lutIn(nd.row, nd.col, n, lutInIdx[out][InjectIn]))
	}
	if err := nd.port("inject", 0, core.In).Bind(inj...); err != nil {
		return err
	}
	return r.RouteClock(nd.Clock, clockPin(nd.row, nd.col, 0), clockPin(nd.row, nd.col, 1))
}

// SetForward enables or disables forwarding from input `in` (a Direction,
// or InjectIn) to output direction `out`, rewriting the output LUT in
// place — a pure configuration change, no routing.
func (nd *RouterNode) SetForward(r *core.Router, out Direction, in int, enable bool) error {
	if !nd.implemented {
		return fmt.Errorf("cores: %s is not implemented", nd.Name())
	}
	if in < 0 || in > InjectIn || lutInIdx[out][in] == 0 {
		return fmt.Errorf("cores: %s: no %v-out input for in=%d (U-turn?)", nd.Name(), out, in)
	}
	nd.fwd[out][in] = enable
	return r.Dev.SetLUT(nd.row, nd.col, nd.outLUT(out), nd.truth(out))
}

// ClearForwards disables every forwarding pair, returning all four output
// LUTs to constant zero.
func (nd *RouterNode) ClearForwards(r *core.Router) error {
	nd.fwd = [4][5]bool{}
	if !nd.implemented {
		return nil
	}
	for d := East; d <= South; d++ {
		if err := r.Dev.SetLUT(nd.row, nd.col, nd.outLUT(d), TruthZero); err != nil {
			return err
		}
	}
	return nil
}

// Obstacle is a placeholder core claiming a rectangle of CLBs (all LUTs
// configured to constant zero), standing in for a dynamically placed
// module the NoC must route around. Tiles on BRAM columns are skipped —
// they have no CLB logic to claim.
type Obstacle struct{ Base }

// NewObstacle creates an unplaced width x height obstacle.
func NewObstacle(name string, width, height int) *Obstacle {
	o := &Obstacle{}
	o.init(name, width, height)
	return o
}

// Implement claims every CLB in the rectangle.
func (o *Obstacle) Implement(r *core.Router) (err error) {
	if err := o.begin(r); err != nil {
		return err
	}
	defer o.settle(r, o, &err)
	for row := o.row; row < o.row+o.height; row++ {
		for col := o.col; col < o.col+o.width; col++ {
			if r.Dev.A.BRAMColumn(col) {
				continue
			}
			for n := 0; n < device.NumLUTs; n++ {
				if err := o.setLUT(r.Dev, row, col, n, TruthZero); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NodeID addresses a mesh node by its (row, column) index in the grid.
type NodeID struct{ I, J int }

// String returns "(i,j)".
func (id NodeID) String() string { return fmt.Sprintf("(%d,%d)", id.I, id.J) }

// meshLink is a directed link: from node (FI, FJ) out of its Dir port to
// the neighbor in that direction.
type meshLink struct {
	FI, FJ int
	Dir    Direction
}

func (l meshLink) to() NodeID {
	di, dj := l.Dir.delta()
	return NodeID{l.FI + di, l.FJ + dj}
}

// Flow is a (source, destination) pair packets travel between. The path
// is recomputed after every obstacle event: XY (column-first) when the XY
// path is clear, BFS detour otherwise.
type Flow struct {
	Src, Dst NodeID
	active   bool
	path     []NodeID
}

type obstacleState struct {
	rect      maze.Rect
	core      *Obstacle
	occluded  []NodeID
	suspended []NodeID           // nodes whose inject net was unrouted
	detoured  []core.EndPoint    // sources of crossing nets re-routed around the rect
	deferred  []*core.Connection // crossing nets with an endpoint inside it
}

// NoC is the mesh overlay: an N x M grid of RouterNodes at a fixed tile
// pitch, fully linked neighbor-to-neighbor, with run-time obstacle
// placement and removal.
type NoC struct {
	R        *core.Router
	MeshRows int
	MeshCols int
	BaseRow  int
	BaseCol  int
	Pitch    int
	Clock    int

	name      string
	built     bool
	nodes     [][]*RouterNode
	occluded  [][]bool
	links     map[meshLink]bool // true = currently routed
	injects   map[NodeID]bool   // true = inject net currently routed
	flows     []*Flow
	obstacles []*obstacleState
	nObstacle int // monotone obstacle-name counter
}

// NewNoC plans (but does not build) a meshRows x meshCols mesh whose
// south-west node sits at tile (baseRow, baseCol), nodes pitch tiles
// apart, clocked by global clock g. Node columns must not be BRAM
// columns, and one tile north of every node must exist (it hosts the
// node's packet-injection tap).
func NewNoC(r *core.Router, name string, meshRows, meshCols, baseRow, baseCol, pitch, g int) (*NoC, error) {
	if meshRows < 1 || meshCols < 1 || meshRows*meshCols < 2 {
		return nil, fmt.Errorf("cores: NoC %s: mesh %dx%d too small", name, meshRows, meshCols)
	}
	if pitch < 2 {
		return nil, fmt.Errorf("cores: NoC %s: pitch %d < 2", name, pitch)
	}
	n := &NoC{
		R: r, MeshRows: meshRows, MeshCols: meshCols,
		BaseRow: baseRow, BaseCol: baseCol, Pitch: pitch, Clock: g,
		name:    name,
		links:   make(map[meshLink]bool),
		injects: make(map[NodeID]bool),
	}
	topRow := baseRow + (meshRows-1)*pitch + 1 // +1: inject tap tile
	rightCol := baseCol + (meshCols-1)*pitch
	if baseRow < 0 || baseCol < 0 || topRow >= r.Dev.Rows || rightCol >= r.Dev.Cols {
		return nil, fmt.Errorf("cores: NoC %s does not fit the %dx%d array", name, r.Dev.Rows, r.Dev.Cols)
	}
	for j := 0; j < meshCols; j++ {
		if r.Dev.A.BRAMColumn(baseCol + j*pitch) {
			return nil, fmt.Errorf("cores: NoC %s: node column %d is a BRAM column", name, baseCol+j*pitch)
		}
	}
	n.nodes = make([][]*RouterNode, meshRows)
	n.occluded = make([][]bool, meshRows)
	for i := range n.nodes {
		n.nodes[i] = make([]*RouterNode, meshCols)
		n.occluded[i] = make([]bool, meshCols)
	}
	return n, nil
}

// NodeSite returns the tile coordinates of node (i, j).
func (n *NoC) NodeSite(i, j int) (row, col int) {
	return n.BaseRow + i*n.Pitch, n.BaseCol + j*n.Pitch
}

// InjectSite returns the tile hosting node (i, j)'s packet-injection tap:
// one tile north of the node. Its S0X output pin, left unconfigured, acts
// as a virtual pad the simulator can force.
func (n *NoC) InjectSite(i, j int) (row, col int) {
	r, c := n.NodeSite(i, j)
	return r + 1, c
}

// NodeAt returns node (i, j); nil outside the grid.
func (n *NoC) NodeAt(i, j int) *RouterNode {
	if i < 0 || i >= n.MeshRows || j < 0 || j >= n.MeshCols {
		return nil
	}
	return n.nodes[i][j]
}

// Live reports whether node (i, j) exists and is not occluded.
func (n *NoC) Live(i, j int) bool {
	return i >= 0 && i < n.MeshRows && j >= 0 && j < n.MeshCols && !n.occluded[i][j]
}

// Obstacles returns the rectangles currently placed.
func (n *NoC) Obstacles() []maze.Rect {
	out := make([]maze.Rect, len(n.obstacles))
	for i, st := range n.obstacles {
		out[i] = st.rect
	}
	return out
}

// allLinks enumerates every directed link in canonical order: row-major
// over nodes, E/W pair then N/S pair. Build, rip-up, and restore all walk
// this order, which is what keeps churn byte-deterministic.
func (n *NoC) allLinks() []meshLink {
	var out []meshLink
	for i := 0; i < n.MeshRows; i++ {
		for j := 0; j < n.MeshCols; j++ {
			if j+1 < n.MeshCols {
				out = append(out, meshLink{i, j, East}, meshLink{i, j + 1, West})
			}
			if i+1 < n.MeshRows {
				out = append(out, meshLink{i, j, North}, meshLink{i + 1, j, South})
			}
		}
	}
	return out
}

func (n *NoC) routeLink(l meshLink) error {
	to := l.to()
	err := n.R.RouteNet(n.nodes[l.FI][l.FJ].OutPort(l.Dir), n.nodes[to.I][to.J].InPort(l.Dir.Opposite()))
	if err != nil {
		return fmt.Errorf("cores: NoC %s: link (%d,%d)%v: %w", n.name, l.FI, l.FJ, l.Dir, err)
	}
	n.links[l] = true
	return nil
}

// Build places and implements every node and routes every directed link.
func (n *NoC) Build() error {
	if n.built {
		return fmt.Errorf("cores: NoC %s already built", n.name)
	}
	for i := 0; i < n.MeshRows; i++ {
		for j := 0; j < n.MeshCols; j++ {
			nd := NewRouterNode(fmt.Sprintf("%s.n%d_%d", n.name, i, j), n.Clock)
			r, c := n.NodeSite(i, j)
			if err := nd.Place(r, c); err != nil {
				return err
			}
			if err := nd.Implement(n.R); err != nil {
				return fmt.Errorf("cores: NoC %s node (%d,%d): %w", n.name, i, j, err)
			}
			n.nodes[i][j] = nd
		}
	}
	for _, l := range n.allLinks() {
		if err := n.routeLink(l); err != nil {
			return err
		}
	}
	n.built = true
	return nil
}

func dirBetween(a, b NodeID) Direction {
	switch {
	case b.J == a.J+1:
		return East
	case b.J == a.J-1:
		return West
	case b.I == a.I+1:
		return North
	}
	return South
}

// xyPath returns the column-first XY path from src to dst, or false if an
// occluded node blocks it.
func (n *NoC) xyPath(src, dst NodeID) ([]NodeID, bool) {
	path := []NodeID{src}
	cur := src
	for cur.J != dst.J {
		if cur.J < dst.J {
			cur.J++
		} else {
			cur.J--
		}
		if !n.Live(cur.I, cur.J) {
			return nil, false
		}
		path = append(path, cur)
	}
	for cur.I != dst.I {
		if cur.I < dst.I {
			cur.I++
		} else {
			cur.I--
		}
		if !n.Live(cur.I, cur.J) {
			return nil, false
		}
		path = append(path, cur)
	}
	return path, true
}

// bfs walks the nodes live reports breadth-first from src, exploring
// neighbors in fixed E, N, W, S order for determinism, and returns the
// predecessor of every node it reaches (src is its own).
func bfs(src NodeID, live func(NodeID) bool) map[NodeID]NodeID {
	prev := map[NodeID]NodeID{src: src}
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for d := East; d <= South; d++ {
			di, dj := d.delta()
			next := NodeID{cur.I + di, cur.J + dj}
			if _, seen := prev[next]; !seen && live(next) {
				prev[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return prev
}

// bfsPath returns a shortest detour over live nodes.
func (n *NoC) bfsPath(src, dst NodeID) ([]NodeID, bool) {
	prev := bfs(src, func(id NodeID) bool { return n.Live(id.I, id.J) })
	if _, ok := prev[dst]; !ok {
		return nil, false
	}
	path := []NodeID{dst}
	for p := dst; p != src; p = prev[p] {
		path = append(path, prev[p])
	}
	slices.Reverse(path)
	return path, true
}

// MeshConnected is the DyNoC precondition: the nodes of a rows x cols mesh
// that live reports form one non-empty connected component, over
// neighbor-to-neighbor links. A placement that would break it is refused.
func MeshConnected(rows, cols int, live func(i, j int) bool) bool {
	in := func(id NodeID) bool { return id.I >= 0 && id.I < rows && id.J >= 0 && id.J < cols && live(id.I, id.J) }
	var start NodeID
	total := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if live(i, j) {
				if total == 0 {
					start = NodeID{i, j}
				}
				total++
			}
		}
	}
	return total > 0 && len(bfs(start, in)) == total
}

// routeInject routes the packet-injection tap for node id. The first
// route searches; after the tap has been unrouted once, its record lives
// in the inject port's memory, so every later route Reconnects — a
// replay of the original path, byte-identical whatever happened between.
func (n *NoC) routeInject(id NodeID) error {
	r, c := n.InjectSite(id.I, id.J)
	port := n.nodes[id.I][id.J].InjectPort()
	var err error
	if len(n.R.RememberedConnections(port)) > 0 {
		err = n.R.Reconnect(port)
	} else {
		err = n.R.RouteNet(core.NewPin(r, c, arch.S0X), port)
	}
	if err != nil {
		return fmt.Errorf("cores: NoC %s: inject net for node (%d,%d): %w", n.name, id.I, id.J, err)
	}
	n.injects[id] = true
	return nil
}

// AddFlow declares a packet flow from node (si, sj) to node (di, dj),
// routing the source's inject tap if it is not yet routed (flows sharing a
// source share the tap) and programming the forwarding LUTs along the
// current path. It returns the flow's id.
func (n *NoC) AddFlow(si, sj, di, dj int) (int, error) {
	if !n.built {
		return 0, fmt.Errorf("cores: NoC %s is not built", n.name)
	}
	src, dst := NodeID{si, sj}, NodeID{di, dj}
	if !n.Live(si, sj) || !n.Live(di, dj) || src == dst {
		return 0, fmt.Errorf("cores: NoC %s: bad flow (%d,%d)->(%d,%d)", n.name, si, sj, di, dj)
	}
	if !n.injects[src] {
		if err := n.routeInject(src); err != nil {
			return 0, err
		}
	}
	n.flows = append(n.flows, &Flow{Src: src, Dst: dst})
	return len(n.flows) - 1, n.recomputeFlows()
}

func (n *NoC) flow(id int) (*Flow, error) {
	if id < 0 || id >= len(n.flows) {
		return nil, fmt.Errorf("cores: NoC %s: no flow %d", n.name, id)
	}
	return n.flows[id], nil
}

// FlowActive reports whether the flow currently has a programmed path
// (both endpoints live, inject tap routed, mesh connected between them).
func (n *NoC) FlowActive(id int) bool {
	f, err := n.flow(id)
	return err == nil && f.active
}

// FlowPath returns the node sequence the flow currently follows,
// source and destination included.
func (n *NoC) FlowPath(id int) ([]NodeID, error) {
	f, err := n.flow(id)
	if err != nil {
		return nil, err
	}
	if !f.active {
		return nil, fmt.Errorf("cores: NoC %s: flow %d is inactive", n.name, id)
	}
	return append([]NodeID(nil), f.path...), nil
}

// InjectPin returns the forceable virtual-pad pin that launches packets
// into the flow's source node.
func (n *NoC) InjectPin(id int) (core.Pin, error) {
	f, err := n.flow(id)
	if err != nil {
		return core.Pin{}, err
	}
	r, c := n.InjectSite(f.Src.I, f.Src.J)
	return core.NewPin(r, c, arch.S0X), nil
}

// ArrivalPin returns a pin on the destination node whose simulated value
// goes high the cycle a packet arrives (an input of the last-hop link).
func (n *NoC) ArrivalPin(id int) (core.Pin, error) {
	f, err := n.flow(id)
	if err != nil {
		return core.Pin{}, err
	}
	if !f.active || len(f.path) < 2 {
		return core.Pin{}, fmt.Errorf("cores: NoC %s: flow %d is inactive", n.name, id)
	}
	dst := f.path[len(f.path)-1]
	din := dirBetween(dst, f.path[len(f.path)-2])
	pins := n.nodes[dst.I][dst.J].InPort(din).Pins()
	return pins[0], nil
}

// recomputeFlows reprograms every node's forwarding LUTs from scratch:
// all forwards cleared, then each flow whose endpoints are
// live and whose inject tap is routed gets its current path (XY if clear,
// BFS detour otherwise) enabled hop by hop.
func (n *NoC) recomputeFlows() error {
	for i := 0; i < n.MeshRows; i++ {
		for j := 0; j < n.MeshCols; j++ {
			if !n.occluded[i][j] && n.nodes[i][j] != nil {
				if err := n.nodes[i][j].ClearForwards(n.R); err != nil {
					return err
				}
			}
		}
	}
	for _, f := range n.flows {
		f.active = false
		f.path = nil
		if !n.Live(f.Src.I, f.Src.J) || !n.Live(f.Dst.I, f.Dst.J) || !n.injects[f.Src] {
			continue
		}
		path, ok := n.xyPath(f.Src, f.Dst)
		if !ok {
			path, ok = n.bfsPath(f.Src, f.Dst)
		}
		if !ok {
			continue
		}
		for m := 0; m+1 < len(path); m++ {
			out := dirBetween(path[m], path[m+1])
			in := InjectIn
			if m > 0 {
				in = int(dirBetween(path[m], path[m-1]))
			}
			nd := n.nodes[path[m].I][path[m].J]
			if err := nd.SetForward(n.R, out, in, true); err != nil {
				return err
			}
		}
		f.active = true
		f.path = path
	}
	return nil
}

func connEndpointIn(c *core.Connection, rect maze.Rect) bool {
	for _, p := range c.Source.Pins() {
		if rect.Contains(p.Row, p.Col) {
			return true
		}
	}
	for _, s := range c.Sinks {
		for _, p := range s.Pins() {
			if rect.Contains(p.Row, p.Col) {
				return true
			}
		}
	}
	return false
}

// PlaceObstacle claims the height x width tile rectangle at (row, col):
// occluded nodes and their links are ripped up (remembered under their
// ports), every other net crossing the rectangle is ripped via
// RipUpRegion, an Obstacle core takes the tiles, the rectangle is
// reserved against the router, and the crossing nets are re-routed around
// it. Fails without touching the device if removing the occluded nodes
// would disconnect the remaining mesh.
func (n *NoC) PlaceObstacle(row, col, height, width int) error {
	if !n.built {
		return fmt.Errorf("cores: NoC %s is not built", n.name)
	}
	rect := maze.Rect{Row: row, Col: col, Height: height, Width: width}
	occlSet := make(map[NodeID]bool)
	var occl []NodeID
	for i := 0; i < n.MeshRows; i++ {
		for j := 0; j < n.MeshCols; j++ {
			r, c := n.NodeSite(i, j)
			if n.Live(i, j) && rect.Contains(r, c) {
				occlSet[NodeID{i, j}] = true
				occl = append(occl, NodeID{i, j})
			}
		}
	}
	if !MeshConnected(n.MeshRows, n.MeshCols, func(i, j int) bool { return n.Live(i, j) && !occlSet[NodeID{i, j}] }) {
		return fmt.Errorf("cores: NoC %s: obstacle at (%d,%d) %dx%d would disconnect the mesh",
			n.name, row, col, width, height)
	}
	for _, o := range n.obstacles {
		if rect.Row < o.rect.Row+o.rect.Height && o.rect.Row < rect.Row+rect.Height &&
			rect.Col < o.rect.Col+o.rect.Width && o.rect.Col < rect.Col+rect.Width {
			return fmt.Errorf("cores: NoC %s: obstacle at (%d,%d) %dx%d overlaps the one at (%d,%d)",
				n.name, row, col, width, height, o.rect.Row, o.rect.Col)
		}
	}
	st := &obstacleState{rect: rect, occluded: occl}
	// 1. Suspend inject taps the rectangle invalidates: source node
	// occluded, or the tap tile itself covered.
	for i := 0; i < n.MeshRows; i++ {
		for j := 0; j < n.MeshCols; j++ {
			id := NodeID{i, j}
			if !n.injects[id] {
				continue
			}
			ir, ic := n.InjectSite(i, j)
			if !occlSet[id] && !rect.Contains(ir, ic) {
				continue
			}
			if err := n.R.Unroute(core.NewPin(ir, ic, arch.S0X)); err != nil {
				return err
			}
			n.injects[id] = false
			st.suspended = append(st.suspended, id)
		}
	}
	// 2. Take down links incident to occluded nodes, in canonical
	// order; port memory remembers them for the restore.
	for _, l := range n.allLinks() {
		if !n.links[l] {
			continue
		}
		if !occlSet[NodeID{l.FI, l.FJ}] && !occlSet[l.to()] {
			continue
		}
		if err := n.R.Unroute(n.nodes[l.FI][l.FJ].OutPort(l.Dir)); err != nil {
			return err
		}
		n.links[l] = false
	}
	// 3. Remove the occluded nodes.
	for _, id := range occl {
		if err := n.nodes[id.I][id.J].Remove(n.R); err != nil {
			return err
		}
		n.occluded[id.I][id.J] = true
	}
	// 4. Rip every remaining net crossing the rectangle — including
	// live-to-live links whose routed path or wire span passes over it.
	ripped, err := n.R.RipUpRegion(row, col, height, width)
	if err != nil {
		return putBack(n.R, ripped, err)
	}
	// 5. The obstacle takes the tiles and the router reserves them.
	ob := NewObstacle(fmt.Sprintf("%s.ob%d", n.name, n.nObstacle), width, height)
	n.nObstacle++
	if err := ob.Place(row, col); err != nil {
		return err
	}
	if err := ob.Implement(n.R); err != nil {
		return err
	}
	st.core = ob
	n.R.AddAvoid(row, col, height, width)
	// 6. Re-route the crossing nets: the reservation vetoes a replay of
	// the remembered path, so each restore detours, and the detour's
	// record keeps the path it left as its home. Nets with an endpoint
	// inside the rectangle cannot come back until the obstacle leaves;
	// they stay retired.
	for _, rec := range ripped {
		if connEndpointIn(rec, rect) {
			st.deferred = append(st.deferred, rec)
			continue
		}
		if err := n.R.RestoreConnection(rec); err != nil {
			return fmt.Errorf("cores: NoC %s: detouring net around obstacle: %w", n.name, err)
		}
		st.detoured = append(st.detoured, rec.Source)
	}
	n.obstacles = append(n.obstacles, st)
	return n.recomputeFlows()
}

// RemoveObstacle reverses a PlaceObstacle with the same rectangle: the
// detoured nets are ripped again, the obstacle core is removed and its
// reservation dropped, the occluded nodes re-implemented, the downed
// links reconnected from port memory, suspended inject taps re-routed,
// and finally the detoured nets sent home and the deferred ones restored —
// all in the build's canonical order, so the configuration returns to its
// pre-obstacle bytes.
func (n *NoC) RemoveObstacle(row, col, height, width int) error {
	rect := maze.Rect{Row: row, Col: col, Height: height, Width: width}
	idx := -1
	for i, st := range n.obstacles {
		if st.rect == rect {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cores: NoC %s: no obstacle at (%d,%d) %dx%d", n.name, row, col, width, height)
	}
	st := n.obstacles[idx]
	// 1. Rip the detours, taking back their live records: each keeps its
	// way home, so step 6 replays the pre-obstacle wires exactly. Nets their
	// owner unrouted while detoured yield no records, and so does a second
	// record of a net already ripped; nets reshaped in the meantime (a
	// fanout branch dropped, say) restore along whatever path they hold now.
	var displaced []*core.Connection
	for _, src := range st.detoured {
		recs, err := n.R.RipUpNet(src)
		if err != nil {
			return err
		}
		displaced = append(displaced, recs...)
	}
	// 2. Obstacle off, reservation dropped.
	if err := st.core.Remove(n.R); err != nil {
		return err
	}
	n.R.RemoveAvoid(row, col, height, width)
	// 3. Nodes back, in row-major order, with pristine forwarding so
	// the LUT bytes match the original build (flows reprogram after).
	for _, id := range st.occluded {
		nd := n.nodes[id.I][id.J]
		nd.fwd = [4][5]bool{}
		if err := nd.Implement(n.R); err != nil {
			return err
		}
		n.occluded[id.I][id.J] = false
	}
	// 4. Downed links reconnect from port memory, in canonical order —
	// every link whose endpoints are both live again, whichever
	// obstacle took it down. A link into a node still occluded by
	// another obstacle stays down; the removal freeing that node
	// reconnects it.
	for _, l := range n.allLinks() {
		if n.links[l] {
			continue
		}
		to := l.to()
		if n.occluded[l.FI][l.FJ] || n.occluded[to.I][to.J] {
			continue
		}
		if err := n.R.Reconnect(n.nodes[l.FI][l.FJ].OutPort(l.Dir)); err != nil {
			return err
		}
		n.links[l] = true
	}
	// 5. Suspended inject taps, in suspension order.
	for _, id := range st.suspended {
		if n.injects[id] {
			continue
		}
		used := false
		for _, f := range n.flows {
			if f.Src == id {
				used = true
			}
		}
		if !used {
			continue
		}
		if err := n.routeInject(id); err != nil {
			return err
		}
	}
	// 6. Displaced nets go home and deferred ones come back: the
	// obstacle's tracks are free again, so every restore replays
	// byte-exactly.
	for _, rec := range append(displaced, st.deferred...) {
		if err := n.R.RestoreConnection(rec); err != nil {
			return err
		}
	}
	n.obstacles = append(n.obstacles[:idx], n.obstacles[idx+1:]...)
	return n.recomputeFlows()
}
