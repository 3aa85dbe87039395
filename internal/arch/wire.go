// Package arch provides the architecture description class for JRoute.
//
// The paper (§3) requires "a Java class in which all of the architecture
// information is held. In this class each wire is defined by a unique
// integer. Also in this class the possible template values are defined,
// along with which template value each wire can be classified under ...
// Also in this Java class is a description of each wire, including how long
// it is, its direction, which wires can drive it, and which wires it can
// drive."
//
// This package is that class, in Go. An Arch value describes one device
// family: the per-tile wire name space, the connectivity (drive) rules, the
// aliasing between names for the same physical track viewed from different
// tiles, and the template-value classification. Two instances are provided:
// NewVirtex (the Virtex-class fabric of the paper's §2) and NewKestrel (a
// deliberately different fabric used for the §5 portability experiments).
//
// The description is pure: it holds no routing state. Device state lives in
// package device, and the state layer consults this package for legality,
// exactly as the paper's router consults the architecture class.
package arch

import "fmt"

// Wire identifies a routing resource by a unique integer within the per-tile
// name space of an architecture, mirroring the paper's "each wire is defined
// by a unique integer". The first fixedWireCount values are common to all
// architectures (logic pins, OUT muxes, global clocks); the remainder
// (singles, hexes, long lines) are laid out per architecture.
type Wire int32

// Invalid is the zero-information wire value.
const Invalid Wire = -1

// Dir is a compass direction used both for wire naming (SingleEast …) and
// for template values.
type Dir uint8

// Compass directions. DirNone is used for resources without a direction
// (pins, muxes, global nets).
const (
	DirNone Dir = iota
	North
	East
	South
	West
)

// String returns the direction name.
func (d Dir) String() string {
	switch d {
	case North:
		return "North"
	case East:
		return "East"
	case South:
		return "South"
	case West:
		return "West"
	default:
		return "None"
	}
}

// Opposite returns the reverse compass direction, and DirNone for DirNone.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case East:
		return West
	case South:
		return North
	case West:
		return East
	default:
		return DirNone
	}
}

// Delta returns the (row, col) step of one tile in direction d. Rows grow
// northward and columns grow eastward, matching the paper's example where
// the route from CLB (5,7) to CLB (6,8) travels east then north.
func (d Dir) Delta() (dr, dc int) {
	switch d {
	case North:
		return 1, 0
	case East:
		return 0, 1
	case South:
		return -1, 0
	case West:
		return 0, -1
	default:
		return 0, 0
	}
}

// Kind classifies a wire by resource type.
type Kind uint8

// Resource kinds. KindOutAlias and KindHexMid are alias name spaces: they
// never appear in canonical track form but are needed so that a PIP at a
// non-origin tile can name the track it taps (e.g. the west neighbour's
// output pin, or a hex at its midpoint).
const (
	KindInvalid  Kind = iota
	KindOutPin        // CLB logic output (S0X … S1YQ)
	KindOutMux        // OUT mux driving the general routing matrix
	KindInput         // LUT input pin (S0F1 … S1G4)
	KindCtrl          // BX/BY/CLK control input pins
	KindSingle        // single-length line
	KindHex           // intermediate-length line (length HexLen)
	KindLongH         // horizontal long line (chip-spanning)
	KindLongV         // vertical long line (chip-spanning)
	KindGClk          // dedicated global clock net
	KindOutAlias      // west neighbour's output pin, seen at this tile
	KindHexMid        // hex named at its midpoint tile
	KindIOBIn         // input pad driving into the fabric (boundary tiles only)
	KindIOBOut        // output pad driven from the fabric (boundary tiles only)
	KindBRAMIn        // block-RAM input pin (address/data/write-enable, BRAM tiles only)
	KindBRAMClk       // block-RAM clock pin (driven by global clocks only)
	KindBRAMOut       // block-RAM data output (a source, BRAM tiles only)
)

// IsSink reports whether a wire of kind k is a sink pin: where a net ends,
// so a route never passes through it and no PIP taps it.
func (k Kind) IsSink() bool {
	switch k {
	case KindInput, KindCtrl, KindIOBOut, KindBRAMIn, KindBRAMClk:
		return true
	}
	return false
}

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindOutPin:
		return "OutPin"
	case KindOutMux:
		return "OutMux"
	case KindInput:
		return "Input"
	case KindCtrl:
		return "Ctrl"
	case KindSingle:
		return "Single"
	case KindHex:
		return "Hex"
	case KindLongH:
		return "LongH"
	case KindLongV:
		return "LongV"
	case KindGClk:
		return "GClk"
	case KindOutAlias:
		return "OutAlias"
	case KindHexMid:
		return "HexMid"
	case KindIOBIn:
		return "IOBIn"
	case KindIOBOut:
		return "IOBOut"
	case KindBRAMIn:
		return "BRAMIn"
	case KindBRAMClk:
		return "BRAMClk"
	case KindBRAMOut:
		return "BRAMOut"
	default:
		return "Invalid"
	}
}

// Fixed wire layout, identical across architectures.
//
// Output pins: each CLB has two slices, each with four outputs: the
// combinational X and Y (F-LUT and G-LUT outputs) and the registered XQ and
// YQ. These are the S1_YQ-style names used in the paper's examples.
const (
	S0X Wire = iota
	S0Y
	S0XQ
	S0YQ
	S1X
	S1Y
	S1XQ
	S1YQ
)

// NumOutPins is the number of CLB logic outputs.
const NumOutPins = 8

// OUT muxes: Out(0) … Out(7), the paper's Out[i].
const (
	outMuxBase   = Wire(NumOutPins) // 8
	NumOutMux    = 8
	inputBase    = outMuxBase + NumOutMux // 16
	NumInputs    = 16                     // S0F1..S0F4, S0G1..G4, S1F1..F4, S1G1..G4
	ctrlBase     = inputBase + NumInputs  // 32
	NumCtrl      = 6                      // S0BX, S0BY, S1BX, S1BY, S0CLK, S1CLK
	gclkBase     = ctrlBase + NumCtrl     // 38
	NumGClk      = 4                      // four dedicated global clock nets (§2)
	outAliasBase = gclkBase + NumGClk     // 42
	// IOBs (§6 future work, implemented): boundary tiles carry input and
	// output pads that couple the fabric to the outside world.
	iobInBase  = outAliasBase + NumOutPins // 50
	NumIOBIn   = 2
	iobOutBase = iobInBase + NumIOBIn // 52
	NumIOBOut  = 2
	// Block RAM (§6 future work, implemented): tiles in dedicated BRAM
	// columns host a small synchronous RAM. BRAMBits words of BRAMWidth
	// bits, so 4 address pins, 8 data-in pins, a write enable, a clock,
	// and 8 data-out pins.
	bramAddrBase   = iobOutBase + NumIOBOut // 54
	NumBRAMAddr    = 4
	bramDinBase    = bramAddrBase + NumBRAMAddr // 58
	NumBRAMDin     = 8
	bramWEWire     = bramDinBase + NumBRAMDin // 66
	bramClkWire    = bramWEWire + 1           // 67
	bramDoutBase   = bramClkWire + 1          // 68
	NumBRAMDout    = 8
	fixedWireCount = bramDoutBase + NumBRAMDout
	firstArchWire  = fixedWireCount // 76: start of per-architecture layout
)

// BRAM geometry: BRAMWords addressable words of BRAMWidth bits each.
const (
	BRAMWords = 16
	BRAMWidth = 8
)

// Control pin wires.
const (
	S0BX  = ctrlBase + 0
	S0BY  = ctrlBase + 1
	S1BX  = ctrlBase + 2
	S1BY  = ctrlBase + 3
	S0CLK = ctrlBase + 4
	S1CLK = ctrlBase + 5
)

// LUT input pins, named as in the paper's examples (S0F3 etc.).
const (
	S0F1 = inputBase + 0
	S0F2 = inputBase + 1
	S0F3 = inputBase + 2
	S0F4 = inputBase + 3
	S0G1 = inputBase + 4
	S0G2 = inputBase + 5
	S0G3 = inputBase + 6
	S0G4 = inputBase + 7
	S1F1 = inputBase + 8
	S1F2 = inputBase + 9
	S1F3 = inputBase + 10
	S1F4 = inputBase + 11
	S1G1 = inputBase + 12
	S1G2 = inputBase + 13
	S1G3 = inputBase + 14
	S1G4 = inputBase + 15
)

// Out returns the OUT mux wire Out[i], i in [0, NumOutMux).
func Out(i int) Wire {
	if i < 0 || i >= NumOutMux {
		return Invalid
	}
	return outMuxBase + Wire(i)
}

// Input returns the i'th LUT input pin, i in [0, NumInputs), in the order
// S0F1..S0F4, S0G1..S0G4, S1F1..S1F4, S1G1..S1G4.
func Input(i int) Wire {
	if i < 0 || i >= NumInputs {
		return Invalid
	}
	return inputBase + Wire(i)
}

// LUTInput returns the input pin for slice s (0 or 1), LUT l (0 = F, 1 = G),
// input index idx (1..4), e.g. LUTInput(0, 0, 3) == S0F3.
func LUTInput(s, l, idx int) Wire {
	if s < 0 || s > 1 || l < 0 || l > 1 || idx < 1 || idx > 4 {
		return Invalid
	}
	return inputBase + Wire(s*8+l*4+idx-1)
}

// OutPin returns the p'th CLB output, p in [0, NumOutPins), in the order
// S0X, S0Y, S0XQ, S0YQ, S1X, S1Y, S1XQ, S1YQ.
func OutPin(p int) Wire {
	if p < 0 || p >= NumOutPins {
		return Invalid
	}
	return Wire(p)
}

// GClk returns the g'th dedicated global clock net, g in [0, NumGClk).
func GClk(g int) Wire {
	if g < 0 || g >= NumGClk {
		return Invalid
	}
	return gclkBase + Wire(g)
}

// IOBIn returns the i'th input pad of a boundary tile: a signal source
// coupling the outside world into the fabric. The device layer restricts
// IOB wires to boundary tiles (§6 future work, implemented).
func IOBIn(i int) Wire {
	if i < 0 || i >= NumIOBIn {
		return Invalid
	}
	return iobInBase + Wire(i)
}

// IOBOut returns the i'th output pad of a boundary tile: a sink the fabric
// drives off-chip.
func IOBOut(i int) Wire {
	if i < 0 || i >= NumIOBOut {
		return Invalid
	}
	return iobOutBase + Wire(i)
}

// BRAMAddr returns the i'th block-RAM address pin (i in [0, NumBRAMAddr)).
func BRAMAddr(i int) Wire {
	if i < 0 || i >= NumBRAMAddr {
		return Invalid
	}
	return bramAddrBase + Wire(i)
}

// BRAMDin returns the i'th block-RAM data input pin.
func BRAMDin(i int) Wire {
	if i < 0 || i >= NumBRAMDin {
		return Invalid
	}
	return bramDinBase + Wire(i)
}

// BRAMWE returns the block-RAM write-enable pin.
func BRAMWE() Wire { return bramWEWire }

// BRAMClk returns the block-RAM clock pin (driveable by global clocks
// only, like CLB clock pins).
func BRAMClk() Wire { return bramClkWire }

// BRAMDout returns the i'th block-RAM data output (a signal source).
func BRAMDout(i int) Wire {
	if i < 0 || i >= NumBRAMDout {
		return Invalid
	}
	return bramDoutBase + Wire(i)
}

// OutAlias returns the wire naming the *west neighbour's* output pin p as
// seen at this tile. Direct connections between horizontally adjacent CLBs
// (§2 "local resources") are expressed as PIPs at the destination tile whose
// source is an OutAlias wire.
func OutAlias(p int) Wire {
	if p < 0 || p >= NumOutPins {
		return Invalid
	}
	return outAliasBase + Wire(p)
}

var outPinNames = [NumOutPins]string{"S0X", "S0Y", "S0XQ", "S0YQ", "S1X", "S1Y", "S1XQ", "S1YQ"}

var inputNames = [NumInputs]string{
	"S0F1", "S0F2", "S0F3", "S0F4", "S0G1", "S0G2", "S0G3", "S0G4",
	"S1F1", "S1F2", "S1F3", "S1F4", "S1G1", "S1G2", "S1G3", "S1G4",
}

var ctrlNames = [NumCtrl]string{"S0BX", "S0BY", "S1BX", "S1BY", "S0CLK", "S1CLK"}

func fixedWireName(w Wire) (string, bool) {
	switch {
	case w >= 0 && w < Wire(NumOutPins):
		return outPinNames[w], true
	case w >= outMuxBase && w < outMuxBase+NumOutMux:
		return fmt.Sprintf("Out[%d]", w-outMuxBase), true
	case w >= inputBase && w < inputBase+NumInputs:
		return inputNames[w-inputBase], true
	case w >= ctrlBase && w < ctrlBase+NumCtrl:
		return ctrlNames[w-ctrlBase], true
	case w >= gclkBase && w < gclkBase+NumGClk:
		return fmt.Sprintf("GClk[%d]", w-gclkBase), true
	case w >= outAliasBase && w < outAliasBase+NumOutPins:
		return "West." + outPinNames[w-outAliasBase], true
	case w >= iobInBase && w < iobInBase+NumIOBIn:
		return fmt.Sprintf("IOBIn[%d]", w-iobInBase), true
	case w >= iobOutBase && w < iobOutBase+NumIOBOut:
		return fmt.Sprintf("IOBOut[%d]", w-iobOutBase), true
	case w >= bramAddrBase && w < bramAddrBase+NumBRAMAddr:
		return fmt.Sprintf("BRAMAddr[%d]", w-bramAddrBase), true
	case w >= bramDinBase && w < bramDinBase+NumBRAMDin:
		return fmt.Sprintf("BRAMDin[%d]", w-bramDinBase), true
	case w == bramWEWire:
		return "BRAMWE", true
	case w == bramClkWire:
		return "BRAMClk", true
	case w >= bramDoutBase && w < bramDoutBase+NumBRAMDout:
		return fmt.Sprintf("BRAMDout[%d]", w-bramDoutBase), true
	}
	return "", false
}
