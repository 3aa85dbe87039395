package arch

// Connectivity rules (§2): "Each type of general routing resource can only
// drive certain types of wires. Logic block outputs drive all length
// interconnects, longs can drive hexes only, hexes drive singles and other
// hexes, and singles drive logic block inputs, vertical long lines, and
// other singles."
//
// Within each legal (kind -> kind) pair, only a patterned subset of the
// target indices is reachable, as in a real general routing matrix. The
// patterns below are arithmetic so that they scale to any parameter set
// accepted by New, and they are chosen so that full reachability holds:
// every LUT input is reachable from some single of every index class, and
// singles of every index are mutually reachable through turns.
//
// LocalFanout answers tile-independently; the device layer filters by
// array bounds and long-line access tiles.

// LocalFanout returns the local wire names that a signal available on wire
// `from` at a tile may drive through PIPs at that tile. The result is
// shared; callers must not modify it.
func (a *Arch) LocalFanout(from Wire) []Wire {
	if uint(from) < uint(len(a.fanoutTab)) {
		return a.fanoutTab[from]
	}
	return nil
}

// LocalDrivers returns the local wire names that may drive wire `to`
// through a PIP at the same tile (the inverse of LocalFanout).
func (a *Arch) LocalDrivers(to Wire) []Wire {
	if uint(to) < uint(len(a.driverTab)) {
		return a.driverTab[to]
	}
	return nil
}

// buildFanout derives every wire's fanout from the rules below and its
// inverse from the tile's PIP pairs, which it returns in enumeration order.
func (a *Arch) buildFanout() [][2]Wire {
	a.fanoutTab = make([][]Wire, a.wireCount)
	for w := range a.wireCount {
		a.fanoutTab[w] = a.computeFanout(w)
	}
	pairs := a.PIPPairs()
	a.driverTab = make([][]Wire, a.wireCount)
	for _, p := range pairs {
		a.driverTab[p[1]] = append(a.driverTab[p[1]], p[0])
	}
	return pairs
}

// allDirs is the direction order used when enumerating fanouts.
var allDirs = [4]Dir{North, East, South, West}

func (a *Arch) computeFanout(from Wire) []Wire {
	c := a.ClassOf(from)
	S, H, L := a.SinglesPerDir, a.HexesPerDir, a.NumLong
	var out []Wire
	add := func(w Wire) {
		if w == Invalid {
			return
		}
		for _, x := range out {
			if x == w {
				return
			}
		}
		out = append(out, w)
	}
	switch c.Kind {
	case KindOutPin:
		p := c.Index
		// Output pins reach the general routing matrix only through OUT
		// muxes; locally they feed back to the CLB's own inputs (§2
		// "feedback to inputs in the same logic block"). The (p+2)%8
		// second choice makes the paper's S1_YQ -> Out[1] (§3.1) legal.
		add(Out(p))
		add(Out((p + 2) % NumOutMux))
		for k := 0; k < NumInputs; k++ {
			if k%4 == p%4 {
				add(Input(k))
			}
		}
		add(ctrlBase + Wire(p%4)) // one of BX/BY per pin class
	case KindOutAlias:
		// Direct connection from the west neighbour's output to this
		// CLB's inputs (§2 "direct connections between horizontally
		// adjacent configurable logic blocks").
		p := c.Index
		add(Input(p % NumInputs))
		add(Input((p + 8) % NumInputs))
	case KindOutMux:
		j := c.Index
		// "Logic block outputs drive all length interconnects." The
		// two index classes per mux make the paper's Out[1] ->
		// SingleEast[5] (§3.1) legal.
		for _, d := range allDirs {
			for i := j % 8; i < S; i += 8 {
				add(a.Single(d, i))
			}
			for i := (j + 4) % 8; i < S; i += 8 {
				add(a.Single(d, i))
			}
			for i := j % 4; i < H; i += 4 {
				add(a.Hex(d, i))
			}
		}
		for i := j % 8; i < L; i += 8 {
			add(a.LongH(i))
			add(a.LongV(i))
		}
	case KindSingle:
		i := c.Index
		// "Singles drive logic block inputs, vertical long lines, and
		// other singles." The third input choice and fourth turn
		// choice make the paper's SingleWest[5] -> SingleNorth[0] and
		// SingleSouth[0] -> S0F3 (§3.1) legal. At boundary tiles
		// singles also reach the output pads.
		add(Input(i % NumInputs))
		add(Input((i + 5) % NumInputs))
		add(Input((i + 2) % NumInputs))
		add(IOBOut(i % NumIOBOut))
		// At BRAM-column tiles singles also reach the RAM pins: the
		// index pattern covers all 13 inputs (4 addr + 8 din + WE)
		// from the 24 singles of each direction.
		switch {
		case i < NumBRAMAddr:
			add(BRAMAddr(i))
		case i < NumBRAMAddr+NumBRAMDin:
			add(BRAMDin(i - NumBRAMAddr))
		case i == NumBRAMAddr+NumBRAMDin:
			add(BRAMWE())
		default:
			add(BRAMAddr(i % NumBRAMAddr))
			add(BRAMDin(i % NumBRAMDin))
		}
		if i%6 < 4 {
			add(ctrlBase + Wire(i%6)) // BX/BY pins
		}
		add(a.LongV(i % L))
		for _, d := range allDirs {
			add(a.Single(d, i))
			add(a.Single(d, (i+1)%S))
			add(a.Single(d, (i+S/2)%S))
			add(a.Single(d, (i+S-5)%S))
		}
	case KindHex, KindHexMid:
		i := c.Index
		// "Hexes drive singles and other hexes."
		for _, d := range allDirs {
			add(a.Single(d, (2*i)%S))
			add(a.Single(d, (2*i+1)%S))
			add(a.Single(d, (2*i+S/2)%S))
			add(a.Hex(d, i))
			add(a.Hex(d, (i+1)%H))
			add(a.Hex(d, (i+H/2)%H))
		}
	case KindLongH, KindLongV:
		i := c.Index
		// "Longs can drive hexes only."
		for _, d := range allDirs {
			add(a.Hex(d, i%H))
			add(a.Hex(d, (i+3)%H))
		}
	case KindGClk:
		// Dedicated global nets reach only the clock pins (§2 "four
		// dedicated global nets with dedicated pins to distribute
		// high-fanout clock signals").
		add(S0CLK)
		add(S1CLK)
		add(BRAMClk())
	case KindIOBIn:
		// Input pads drive the general routing matrix like logic
		// outputs do: singles and hexes of their boundary tile.
		i := c.Index
		for _, d := range allDirs {
			for k := 2 * i; k < S; k += 2 * NumIOBIn {
				add(a.Single(d, k))
			}
			for k := i; k < H; k += NumIOBIn {
				add(a.Hex(d, k))
			}
		}
	case KindBRAMOut:
		// RAM outputs drive the routing matrix of their tile like
		// logic outputs: a patterned subset of singles and hexes.
		j := c.Index
		for _, d := range allDirs {
			for k := j % 8; k < S; k += 8 {
				add(a.Single(d, k))
			}
			for k := j % 4; k < H; k += 4 {
				add(a.Hex(d, k))
			}
		}
	}
	return out
}

// PIPLegalLocal reports whether a PIP (from -> to) is permitted by the
// connectivity rules, ignoring tile position (bounds and long-line access
// are the device layer's concern).
func (a *Arch) PIPLegalLocal(from, to Wire) bool {
	_, ok := a.PIPBit(from, to)
	return ok
}
