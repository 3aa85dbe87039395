package debug_test

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/device"
)

// paperNet routes the §3.1 worked example, S1_YQ at CLB (5,7) to S0F3 at
// CLB (6,8), on the smallest Virtex array and returns the router.
func paperNet() *core.Router {
	dev, err := device.New(arch.NewVirtex(), 12, 12)
	if err != nil {
		panic(err)
	}
	r := core.New(dev)
	if err := r.RouteNet(core.NewPin(5, 7, arch.S1YQ), core.NewPin(6, 8, arch.S0F3)); err != nil {
		panic(err)
	}
	return r
}

// The §3.5 view of a traced net: S marks the source tile, T the sink
// tiles, * the tiles the route passes through.
func ExampleRenderNet() {
	r := paperNet()
	net, err := r.Trace(core.NewPin(5, 7, arch.S1YQ))
	if err != nil {
		panic(err)
	}
	fmt.Print(debug.RenderNet(r.Dev, net))
	// Output:
	//  11 ............
	//  10 ............
	//   9 ............
	//   8 ............
	//   7 ............
	//   6 ........T...
	//   5 .......S*...
	//   4 ............
	//   3 ............
	//   2 ............
	//   1 ............
	//   0 ............
	//     012345678901
}

// Congestion per tile: the paper net puts two PIPs in its source tile and
// one in each of the other two; sixteen manual PIPs into one CLB's inputs
// fill the ten-or-more bucket.
func ExampleHeatmap() {
	r := paperNet()
	for k := 0; k < 16; k++ {
		if err := r.Route(3, 3, arch.OutPin(k%4), arch.Input(k)); err != nil {
			panic(err)
		}
	}
	fmt.Print(debug.Heatmap(r.Dev))
	// Output:
	//  11 ............
	//  10 ............
	//   9 ............
	//   8 ............
	//   7 ............
	//   6 ........1...
	//   5 .......21...
	//   4 ............
	//   3 ...#........
	//   2 ............
	//   1 ............
	//   0 ............
	//     012345678901
}

// The E1 audit: the §2 Virtex resource counts as the model instantiates
// them, and the configuration size of the array.
func ExampleArchAudit() {
	dev, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		panic(err)
	}
	fmt.Print(debug.ArchAudit(dev))
	// Output:
	// architecture "virtex" on a 16x24 CLB array
	//   local:   8 outputs, 8 OUT muxes, 16 LUT inputs + 6 control pins per CLB
	//            direct connects to the east neighbour; output feedback to own inputs
	//   general: 24 singles per direction; 12 CLB-accessible length-6 lines per direction (every 2nd bidirectional)
	//   long:    12 horizontal + 12 vertical long lines, accessible every 6 blocks
	//   global:  4 dedicated clock nets with dedicated pins
	//   io:      2 input + 2 output pads per boundary tile (§6 ext.)
	//   bram:    16x8-bit RAM per tile of every 12th column (§6 ext.)
	//   config:  4824 PIP bits per tile, 15096 frames total
	//   rules:   outputs drive all length interconnects; longs drive hexes only;
	//            hexes drive singles and hexes; singles drive inputs, vertical longs, singles
}
