package repro_test

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/debug"
	"repro/internal/device"
	"repro/internal/jbits"
	"repro/internal/sim"
)

// must stops an example at an error; an example has no *testing.T to
// report it to, and the panic fails the test.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// probesOf returns a simulator probe on the one pin of each port.
func probesOf[E core.EndPoint](ports []E) []sim.Probe {
	var probes []sim.Probe
	for _, p := range ports {
		pin := p.Pins()[0]
		probes = append(probes, sim.Probe{Row: pin.Row, Col: pin.Col, W: pin.W})
	}
	return probes
}

// Example_quickstart is the worked example of the paper's §3.1 at all four
// levels of control, on a Virtex-class 16x24 device: connecting S1_YQ in
// CLB (5,7) to S0F3 in CLB (6,8).
//
//	level 1: four explicit route(row, col, from, to) calls
//	level 2: one route(Path) call
//	level 3: one route(Pin, end_wire, Template) call with {OUTMUX, EAST1, NORTH1, CLBIN}
//	level 4: one fully automatic route(src, sink) call
//
// After each level the net is traced (§3.5), reverse-traced from its sink,
// printed, and unrouted (§3.3), so the next level starts from a clean
// fabric. Every level sets 4 PIPs and reaches the one sink; the stats line
// shows the fabric is clean at the end.
func Example_quickstart() {
	a := arch.NewVirtex()
	dev, err := device.New(a, 16, 24)
	must(err)
	router := core.New(dev)

	src := core.NewPin(5, 7, arch.S1YQ)
	sink := core.NewPin(6, 8, arch.S0F3)

	levels := []struct {
		name string
		run  func() error
	}{
		{"level 1: single connections", func() error {
			// router.route(5, 7, S1_YQ, Out[1]); ...
			for _, p := range []device.PIP{
				{Row: 5, Col: 7, From: arch.S1YQ, To: arch.Out(1)},
				{Row: 5, Col: 7, From: arch.Out(1), To: a.Single(arch.East, 5)},
				{Row: 5, Col: 8, From: a.Single(arch.West, 5), To: a.Single(arch.North, 0)},
				{Row: 6, Col: 8, From: a.Single(arch.South, 0), To: arch.S0F3},
			} {
				if err := router.Route(p.Row, p.Col, p.From, p.To); err != nil {
					return err
				}
			}
			return nil
		}},
		{"level 2: route(Path)", func() error {
			// int[] p = {S1_YQ, Out[1], SingleEast[5], SingleNorth[0], S0F3};
			return router.RoutePath(core.NewPath(5, 7, []arch.Wire{
				arch.S1YQ, arch.Out(1), a.Single(arch.East, 5), a.Single(arch.North, 0), arch.S0F3,
			}))
		}},
		{"level 3: route(Pin, end_wire, Template)", func() error {
			// int[] t = {OUTMUX, EAST1, NORTH1, CLBIN};
			tmpl, err := core.ParseTemplate("OUTMUX,EAST1,NORTH1,CLBIN")
			if err != nil {
				return err
			}
			return router.RouteTemplate(src, arch.S0F3, tmpl)
		}},
		{"level 4: route(src, sink) auto", func() error {
			return router.RouteNet(src, sink)
		}},
	}

	for _, l := range levels {
		fmt.Printf("== %s ==\n", l.name)
		must(l.run())
		net, err := router.Trace(src)
		must(err)
		fmt.Print(debug.NetReport(dev, net))
		rt, err := router.ReverseTrace(sink)
		must(err)
		fmt.Printf("reverse trace confirms source %s@(%d,%d); %d PIPs on device\n\n",
			a.WireName(rt.Source.W), rt.Source.Row, rt.Source.Col, dev.OnPIPCount())
		must(router.Unroute(src))
	}
	st := router.Stats()
	fmt.Printf("all four levels connected the same pins: PIPs set %d, cleared %d, template hits %d\n",
		st.PIPsSet, st.PIPsCleared, st.TemplateHits)
	// Output:
	// == level 1: single connections ==
	// net S1YQ@(5,7): 4 PIPs, 1 sinks
	//   (5,7) S1YQ -> Out[1]
	//   (5,7) Out[1] -> SingleEast[5]
	//   (5,8) SingleWest[5] -> SingleNorth[0]
	//   (6,8) SingleSouth[0] -> S0F3
	//   sink S0F3@(6,8)
	// reverse trace confirms source S1YQ@(5,7); 4 PIPs on device
	//
	// == level 2: route(Path) ==
	// net S1YQ@(5,7): 4 PIPs, 1 sinks
	//   (5,7) S1YQ -> Out[1]
	//   (5,7) Out[1] -> SingleEast[5]
	//   (5,8) SingleWest[5] -> SingleNorth[0]
	//   (6,8) SingleSouth[0] -> S0F3
	//   sink S0F3@(6,8)
	// reverse trace confirms source S1YQ@(5,7); 4 PIPs on device
	//
	// == level 3: route(Pin, end_wire, Template) ==
	// net S1YQ@(5,7): 4 PIPs, 1 sinks
	//   (5,7) S1YQ -> Out[7]
	//   (5,7) Out[7] -> SingleEast[7]
	//   (5,8) SingleWest[7] -> SingleNorth[2]
	//   (6,8) SingleSouth[2] -> S0F3
	//   sink S0F3@(6,8)
	// reverse trace confirms source S1YQ@(5,7); 4 PIPs on device
	//
	// == level 4: route(src, sink) auto ==
	// net S1YQ@(5,7): 4 PIPs, 1 sinks
	//   (5,7) S1YQ -> Out[7]
	//   (5,7) Out[7] -> SingleEast[7]
	//   (5,8) SingleWest[7] -> SingleNorth[2]
	//   (6,8) SingleSouth[2] -> S0F3
	//   sink S0F3@(6,8)
	// reverse trace confirms source S1YQ@(5,7); 4 PIPs on device
	//
	// all four levels connected the same pins: PIPs set 16, cleared 16, template hits 1
}

// Example_counter builds the paper's §4 example — "a counter can be made
// from a constant adder with the output fed back to one input ports and
// the other input set to a value of one" — clocks it, and then retunes the
// increment at run time by rewriting LUT truth tables only, with no
// routing change: a run-time parameterizable core.
func Example_counter() {
	dev, err := device.New(arch.NewVirtex(), 16, 24)
	must(err)
	router := core.New(dev)

	const bits = 8
	ctr, err := cores.NewCounter("counter", bits, 1)
	must(err)
	must(ctr.Place(4, 10))
	must(ctr.Implement(router))
	fmt.Printf("implemented %d-bit counter at (4,10): %d PIPs, %d active CLBs\n",
		bits, dev.OnPIPCount(), len(dev.ActiveCLBs()))
	fmt.Println(debug.Floorplan(dev))

	// The "q" group re-exports the adder's registered sums through port
	// forwarding.
	probes := probesOf(ctr.Ports("q"))
	s := sim.New(dev)
	fmt.Println("counting by 1:")
	for cyc := 0; cyc < 6; cyc++ {
		v, err := s.ReadWord(probes)
		must(err)
		fmt.Printf("  cycle %2d: q = %3d\n", cyc, v)
		must(s.Step())
	}

	before := dev.OnPIPCount()
	must(ctr.SetStep(router, 5))
	if dev.OnPIPCount() != before {
		panic("SetStep changed routing")
	}
	fmt.Println("retuned step to 5 at run time (LUT rewrite only):")
	for cyc := 6; cyc < 12; cyc++ {
		must(s.Step())
		v, err := s.ReadWord(probes)
		must(err)
		fmt.Printf("  cycle %2d: q = %3d\n", cyc+1, v)
	}
	// Output:
	// implemented 8-bit counter at (4,10): 74 PIPs, 4 active CLBs
	//  15 ........................
	//  14 ........................
	//  13 ........................
	//  12 ........................
	//  11 ........................
	//  10 ........................
	//   9 ........................
	//   8 ........................
	//   7 ..........#.............
	//   6 ..........#.............
	//   5 ..........#.............
	//   4 ..........#.............
	//   3 ........................
	//   2 ........................
	//   1 ........................
	//   0 ........................
	//     012345678901234567890123
	//
	// counting by 1:
	//   cycle  0: q =   0
	//   cycle  1: q =   1
	//   cycle  2: q =   2
	//   cycle  3: q =   3
	//   cycle  4: q =   4
	//   cycle  5: q =   5
	// retuned step to 5 at run time (LUT rewrite only):
	//   cycle  7: q =  11
	//   cycle  8: q =  16
	//   cycle  9: q =  21
	//   cycle 10: q =  26
	//   cycle 11: q =  31
	//   cycle 12: q =  36
}

// Example_dataflow builds the §3.1 bus-call scenario: "In a data flow
// design, the outputs of one stage go to the inputs of the next stage ...
// Using the bus method, the user would not need to connect each bit of the
// bus." The pipeline x -> [ConstMul ×5] -> [ConstAdder +3] -> [Register]
// -> y is wired port-to-port with RouteBus and simulated for every 4-bit x.
func Example_dataflow() {
	dev, err := device.New(arch.NewVirtex(), 16, 24)
	must(err)
	router := core.New(dev)

	mul, err := cores.NewConstMul("mul5", 5, 4) // 4-bit x, 8-bit product
	must(err)
	must(mul.Place(3, 8))
	must(mul.Implement(router))
	add, err := cores.NewConstAdder("add3", mul.OutBits(), 3, false)
	must(err)
	must(add.Place(3, 13))
	must(add.Implement(router))
	reg, err := cores.NewRegister("regY", mul.OutBits())
	must(err)
	must(reg.Place(3, 18))
	must(reg.Implement(router))

	must(router.RouteBus(mul.Group("p").EndPoints(), add.Group("x").EndPoints()))
	must(router.RouteBus(add.Group("sum").EndPoints(), reg.Group("d").EndPoints()))
	fmt.Printf("pipeline routed: %d PIPs on device\n", dev.OnPIPCount())
	fmt.Println(debug.Floorplan(dev))

	// Drive x from virtual pads and run.
	s := sim.New(dev)
	xPorts := mul.Ports("x")
	for i, p := range xPorts {
		must(router.RouteNet(core.NewPin(3, 3, arch.OutPin(i)), p))
	}
	probes := probesOf(reg.Ports("q"))
	fmt.Println("y = 5*x + 3, registered:")
	for x := uint64(0); x < 16; x++ {
		for i := range xPorts {
			must(s.Force(3, 3, arch.OutPin(i), x>>uint(i)&1 != 0))
		}
		must(s.Step()) // one clock to latch the result
		y, err := s.ReadWord(probes)
		must(err)
		status := "ok"
		if y != 5*x+3 {
			status = fmt.Sprintf("MISMATCH (want %d)", 5*x+3)
		}
		fmt.Printf("  x=%2d -> y=%3d  %s\n", x, y, status)
	}
	// Output:
	// pipeline routed: 179 PIPs on device
	//  15 ........................
	//  14 ........................
	//  13 ........................
	//  12 ........................
	//  11 ........................
	//  10 ........................
	//   9 ........................
	//   8 ........................
	//   7 ........................
	//   6 .............#..........
	//   5 .............#..........
	//   4 ........#....#....#.....
	//   3 ........#....#....#.....
	//   2 ........................
	//   1 ........................
	//   0 ........................
	//     012345678901234567890123
	//
	// y = 5*x + 3, registered:
	//   x= 0 -> y=  3  ok
	//   x= 1 -> y=  8  ok
	//   x= 2 -> y= 13  ok
	//   x= 3 -> y= 18  ok
	//   x= 4 -> y= 23  ok
	//   x= 5 -> y= 28  ok
	//   x= 6 -> y= 33  ok
	//   x= 7 -> y= 38  ok
	//   x= 8 -> y= 43  ok
	//   x= 9 -> y= 48  ok
	//   x=10 -> y= 53  ok
	//   x=11 -> y= 58  ok
	//   x=12 -> y= 63  ok
	//   x=13 -> y= 68  ok
	//   x=14 -> y= 73  ok
	//   x=15 -> y= 78  ok
}

// Example_rtr is §3.3's run-time reconfiguration story end to end:
// "consider a constant multiplier. The system connects it to the circuit
// and later requires a new constant. The core can be removed, unrouted,
// and replaced with a new constant multiplier without having to specify
// connections again. Core relocation is handled in a similar way." The
// configuration is shipped to a simulated board through the JBits layer,
// so the swap's cost shows as partial-bitstream frames against a full
// configuration, and readback proves the board holds what the router set.
func Example_rtr() {
	a := arch.NewVirtex()
	session, err := jbits.NewSession(a, 16, 24)
	must(err)
	dev := session.Dev
	router := core.New(dev)
	board, err := jbits.NewBoard("rtr-board", a, 16, 24)
	must(err)

	// A constant multiplier feeding a register, wired port-to-port, with
	// its input driven from virtual pads.
	mul, err := cores.NewConstMul("mul", 3, 2)
	must(err)
	must(mul.Place(4, 10))
	must(mul.Implement(router))
	reg, err := cores.NewRegister("reg", mul.OutBits())
	must(err)
	must(reg.Place(4, 16))
	must(reg.Implement(router))
	must(router.RouteBus(mul.Group("p").EndPoints(), reg.Group("d").EndPoints()))
	driveX := func() {
		for i := 0; i < 4; i++ {
			must(router.RouteNet(core.NewPin(4, 4, arch.OutPin(i)), mul.Ports("x")[i]))
		}
	}
	driveX()

	full, err := session.SyncFull(board)
	must(err)
	fmt.Printf("initial configuration: %d frames (full bitstream)\n", full)

	run := func(x uint64, k uint64) {
		s := sim.New(dev)
		for i := 0; i < 4; i++ {
			must(s.Force(4, 4, arch.OutPin(i), x>>uint(i)&1 != 0))
		}
		must(s.Step())
		y, err := s.ReadWord(probesOf(reg.Ports("q")))
		must(err)
		fmt.Printf("  x=%d: register captured %d (want %d)\n", x, y, k*x)
	}
	fmt.Println("running with constant 3:")
	run(7, 3)

	// 1. Unroute the nets touching the core's ports; the router
	//    remembers them.
	for _, p := range mul.Ports("p") {
		must(router.Unroute(p))
	}
	for i := 0; i < 4; i++ {
		must(router.Unroute(core.NewPin(4, 4, arch.OutPin(i))))
	}
	// 2. Remove the core and replace it: new constant, new location.
	must(mul.Remove(router))
	must(mul.SetConstant(router, 2))
	must(mul.Place(9, 10))
	must(mul.Implement(router))
	// 3. Reconnect: the remembered port connections are restored against
	//    the relocated core; no connection is re-specified by hand.
	for _, p := range mul.Ports("p") {
		must(router.Reconnect(p))
	}
	driveX()

	partial, err := session.SyncPartial(board)
	must(err)
	diffs, err := session.VerifyReadback(board)
	must(err)
	fmt.Printf("RTR swap shipped %d frames (%.1f%% of a full bitstream); readback diffs: %d\n",
		partial, 100*float64(partial)/float64(full), diffs)
	fmt.Println("running with constant 2 at the new location:")
	run(6, 2)
	fmt.Printf("board totals: %d configurations, %d frames, %d bytes\n",
		board.Configurations, board.FramesWritten, board.BytesWritten)
	// Output:
	// initial configuration: 15096 frames (full bitstream)
	// running with constant 3:
	//   x=7: register captured 21 (want 21)
	// RTR swap shipped 128 frames (0.8% of a full bitstream); readback diffs: 0
	// running with constant 2 at the new location:
	//   x=6: register captured 12 (want 12)
	// board totals: 2 configurations, 15224 frames, 245206 bytes
}

// Example_adaptive runs the full RTR toolkit on a moving target: a
// multiply-accumulate core (ConstMul, Adder2 and Register composed
// port-to-port, §3.2) integrates K*x every clock; at run time K is first
// retuned by rewriting LUTs only, then the whole core is replaced at a new
// location with cores.Replace, the packaged §3.3 flow (unroute ports,
// remove, re-place, re-implement, reconnect from port memory). A
// BoardScope-style waveform recorder (§3.5) captures the accumulator.
func Example_adaptive() {
	dev, err := device.New(arch.NewVirtex(), 16, 24)
	must(err)
	router := core.New(dev)

	mac, err := cores.NewMAC("mac", 3, 3)
	must(err)
	must(mac.Place(2, 6))
	must(mac.Implement(router))
	fmt.Printf("MAC (acc += 3*x) implemented: %d PIPs, %d CLBs\n",
		dev.OnPIPCount(), len(dev.ActiveCLBs()))

	s := sim.New(dev)
	xPorts := mac.Ports("x")
	for i, p := range xPorts {
		must(router.RouteNet(core.NewPin(2, 2, arch.OutPin(i)), p))
	}
	wave := debug.NewWaveform(dev, s)
	for i, probe := range probesOf(mac.Ports("acc")[:6]) {
		must(wave.ProbePin(fmt.Sprintf("acc%d", i), probe))
	}

	fmt.Println("\nphase 1: acc += 3*x with x = 2")
	for i := range xPorts {
		must(s.Force(2, 2, arch.OutPin(i), 2>>uint(i)&1 != 0))
	}
	for cyc := 0; cyc < 4; cyc++ {
		acc, err := s.ReadWord(probesOf(mac.Ports("acc")))
		must(err)
		fmt.Printf("  cycle %d: acc = %d\n", cyc, acc)
		must(wave.Step())
	}

	fmt.Println("\nphase 2: retune K to 5 at run time (LUT rewrite, no routing change)")
	before := dev.OnPIPCount()
	must(mac.SetConstant(router, 5))
	if dev.OnPIPCount() != before {
		panic("retune changed routing")
	}
	for cyc := 4; cyc < 8; cyc++ {
		must(wave.Step())
		acc, err := s.ReadWord(probesOf(mac.Ports("acc")))
		must(err)
		fmt.Printf("  cycle %d: acc = %d\n", cyc, acc)
	}

	fmt.Println("\nwaveform so far (low bits of acc):")
	fmt.Print(wave.String())

	fmt.Println("\nphase 3: replace the MAC at a new location with cores.Replace (§3.3)")
	// Tear down the pad nets; because their sinks are the MAC's x ports,
	// the router remembers them (§3.3) and Replace reconnects them to the
	// relocated core: "without having to specify connections again".
	for i := range xPorts {
		must(router.Unroute(core.NewPin(2, 2, arch.OutPin(i))))
	}
	must(cores.Replace(router, mac, 8, 6, []string{"x", "acc"}, func() error {
		return mac.SetConstant(router, 1)
	}))
	row, col, _, _ := mac.Bounds()
	fmt.Printf("MAC now at (%d,%d) with K=1; pad nets reconnected from port memory\n", row, col)
	fmt.Print(debug.Floorplan(dev))

	s2 := sim.New(dev)
	for i := range mac.Ports("x") {
		must(s2.Force(2, 2, arch.OutPin(i), 4>>uint(i)&1 != 0))
	}
	for cyc := 0; cyc < 3; cyc++ {
		must(s2.Step())
		acc, err := s2.ReadWord(probesOf(mac.Ports("acc")))
		must(err)
		fmt.Printf("  cycle %d: acc = %d (accumulating 1*4)\n", cyc, acc)
	}
	// Output:
	// MAC (acc += 3*x) implemented: 301 PIPs, 11 CLBs
	//
	// phase 1: acc += 3*x with x = 2
	//   cycle 0: acc = 0
	//   cycle 1: acc = 6
	//   cycle 2: acc = 12
	//   cycle 3: acc = 18
	//
	// phase 2: retune K to 5 at run time (LUT rewrite, no routing change)
	//   cycle 4: acc = 34
	//   cycle 5: acc = 44
	//   cycle 6: acc = 54
	//   cycle 7: acc = 64
	//
	// waveform so far (low bits of acc):
	// acc0 ________
	// acc1 _#_#_#_#
	// acc2 _##___##
	// acc3 __#_#_#_
	// acc4 ___##__#
	// acc5 _____###
	//
	// phase 3: replace the MAC at a new location with cores.Replace (§3.3)
	// MAC now at (8,6) with K=1; pad nets reconnected from port memory
	//  15 ........................
	//  14 ........................
	//  13 ..........#.............
	//  12 ..........#.............
	//  11 ..........#.............
	//  10 ..........#...#.........
	//   9 ......#...#...#.........
	//   8 ......#...#...#.........
	//   7 ........................
	//   6 ........................
	//   5 ........................
	//   4 ........................
	//   3 ........................
	//   2 ........................
	//   1 ........................
	//   0 ........................
	//     012345678901234567890123
	//   cycle 0: acc = 4 (accumulating 1*4)
	//   cycle 1: acc = 8 (accumulating 1*4)
	//   cycle 2: acc = 12 (accumulating 1*4)
}

// Example_memory puts the two §6 "future release" features together: a
// counter sweeps the address pins of a Block-RAM ROM holding a waveform
// table, and the ROM's registered output leaves the chip through IOB
// output pads on the east edge — a direct-digital-synthesis function
// generator, placed and routed at run time.
func Example_memory() {
	dev, err := device.New(arch.NewVirtex(), 16, 24)
	must(err)
	router := core.New(dev)

	// A 16-entry triangle wave in the ROM.
	var table [arch.BRAMWords]byte
	for i := range table {
		if i < 8 {
			table[i] = byte(i * 8)
		} else {
			table[i] = byte((15 - i) * 8)
		}
	}
	rom := cores.NewROM16x8("wave", table)
	must(rom.Place(8, 6)) // column 6 is a BRAM column
	must(rom.Implement(router))

	ctr, err := cores.NewCounter("phase", 4, 1)
	must(err)
	must(ctr.Place(7, 2))
	must(ctr.Implement(router))
	must(router.RouteBus(ctr.Group("q").EndPoints(), rom.Group("addr").EndPoints()))

	// ROM data out -> IOB pads on the east edge, 2 pads per boundary tile,
	// so the 8 bits spread over 4 tiles.
	var pads []core.EndPoint
	for i := 0; i < arch.NumBRAMDout; i++ {
		pads = append(pads, core.NewPin(6+i/2, 23, arch.IOBOut(i%2)))
	}
	must(router.RouteBus(rom.Group("dout").EndPoints(), pads))

	fmt.Printf("function generator routed: %d PIPs, %d CLBs, %d BRAM site(s)\n",
		dev.OnPIPCount(), len(dev.ActiveCLBs()), len(dev.ActiveBRAMs()))
	fmt.Println(debug.Floorplan(dev))

	s := sim.New(dev)
	probes := probesOf(pads)
	fmt.Println("pad output over 24 cycles (triangle wave):")
	for cyc := 0; cyc < 24; cyc++ {
		must(s.Step())
		v, err := s.ReadWord(probes)
		must(err)
		fmt.Printf("  cycle %2d: %3d |%s\n", cyc, v, strings.Repeat("=", int(v)/4))
	}
	// Output:
	// function generator routed: 127 PIPs, 2 CLBs, 1 BRAM site(s)
	//  15 ........................
	//  14 ........................
	//  13 ........................
	//  12 ........................
	//  11 ........................
	//  10 ........................
	//   9 ........................
	//   8 ..#.....................
	//   7 ..#.....................
	//   6 ........................
	//   5 ........................
	//   4 ........................
	//   3 ........................
	//   2 ........................
	//   1 ........................
	//   0 ........................
	//     012345678901234567890123
	//
	// pad output over 24 cycles (triangle wave):
	//   cycle  0:   0 |
	//   cycle  1:   8 |==
	//   cycle  2:  16 |====
	//   cycle  3:  24 |======
	//   cycle  4:  32 |========
	//   cycle  5:  40 |==========
	//   cycle  6:  48 |============
	//   cycle  7:  56 |==============
	//   cycle  8:  56 |==============
	//   cycle  9:  48 |============
	//   cycle 10:  40 |==========
	//   cycle 11:  32 |========
	//   cycle 12:  24 |======
	//   cycle 13:  16 |====
	//   cycle 14:   8 |==
	//   cycle 15:   0 |
	//   cycle 16:   0 |
	//   cycle 17:   8 |==
	//   cycle 18:  16 |====
	//   cycle 19:  24 |======
	//   cycle 20:  32 |========
	//   cycle 21:  40 |==========
	//   cycle 22:  48 |============
	//   cycle 23:  56 |==============
}
