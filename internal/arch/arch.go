package arch

import "fmt"

// Arch describes one device family: resource counts, wire layout, and the
// connectivity patterns. It is immutable after construction.
//
// Constraints (validated by New): SinglesPerDir must be a positive multiple
// of 8, HexesPerDir a positive multiple of 4, HexLen even and at least 2,
// NumLong at least 1, LongAccessPeriod at least 2.
type Arch struct {
	// Name identifies the family, e.g. "virtex".
	Name string

	// SinglesPerDir is the number of single-length lines leaving a tile in
	// each of the four directions (Virtex: 24, §2).
	SinglesPerDir int

	// HexesPerDir is the number of intermediate-length lines a CLB can
	// access in each direction (Virtex: "Only 12 in each direction can be
	// accessed by any given logic block", §2).
	HexesPerDir int

	// HexLen is the span of an intermediate line in tiles (Virtex: 6).
	// It must be even; the midpoint tap sits at HexLen/2.
	HexLen int

	// NumLong is the number of long lines per row (horizontal) and per
	// column (vertical) (Virtex: 12, §2).
	NumLong int

	// LongAccessPeriod is the tile period at which long lines can be
	// driven or tapped (Virtex: "Long lines can be accessed every 6
	// blocks", §2).
	LongAccessPeriod int

	// BidiHexPeriod makes hex i drivable from both endpoints when
	// i%BidiHexPeriod == 0 ("Some hexes are bi-directional", §2).
	// Zero means no hex is bidirectional.
	BidiHexPeriod int

	// BRAMColumnPeriod places a block-RAM column every this many
	// columns (at col%period == period/2), the §6 Block RAM extension.
	// Zero means the family has no block RAM.
	BRAMColumnPeriod int

	// Derived layout (computed by New).
	singleBase Wire // 4 blocks of SinglesPerDir in order N, E, S, W
	hexBase    Wire // 4 blocks of HexesPerDir in order N, E, S, W
	hexMidBase Wire // 2 blocks of HexesPerDir in order N, E (mid aliases)
	longHBase  Wire
	longVBase  Wire
	wireCount  Wire

	// Connectivity tables (computed by New from the rules in rules.go).
	fanoutTab [][]Wire
	driverTab [][]Wire

	classTab []Class // classify of every wire, computed by New

	// Slots number the canonical wire names (IsCanonicalWire) in ascending
	// wire order, computed by New; a device indexes its tracks by them.
	slotOf   []int16 // wire -> slot; -1 for an alias name
	slotWire []Wire  // slot -> wire

	// The plane table's pair indices, the tile's PIP pairs in the bit order
	// they give, each pair's bit, and that order's fingerprint (planes.go),
	// set by New.
	planes      []int
	pipPairs    [][2]Wire
	pipBit      map[[2]Wire]int
	layoutPrint string

	names map[string]Wire // WireName of every wire, for ParseWire; set by New
}

// New validates the parameters and computes the wire layout. Most callers
// want NewVirtex or NewKestrel instead.
func New(a Arch) (*Arch, error) {
	switch {
	case a.Name == "":
		return nil, fmt.Errorf("arch: empty name")
	case a.SinglesPerDir <= 0 || a.SinglesPerDir%8 != 0:
		return nil, fmt.Errorf("arch %s: SinglesPerDir must be a positive multiple of 8, got %d", a.Name, a.SinglesPerDir)
	case a.HexesPerDir <= 0 || a.HexesPerDir%4 != 0:
		return nil, fmt.Errorf("arch %s: HexesPerDir must be a positive multiple of 4, got %d", a.Name, a.HexesPerDir)
	case a.HexLen < 2 || a.HexLen%2 != 0:
		return nil, fmt.Errorf("arch %s: HexLen must be even and >= 2, got %d", a.Name, a.HexLen)
	case a.NumLong < 1:
		return nil, fmt.Errorf("arch %s: NumLong must be >= 1, got %d", a.Name, a.NumLong)
	case a.LongAccessPeriod < 2:
		return nil, fmt.Errorf("arch %s: LongAccessPeriod must be >= 2, got %d", a.Name, a.LongAccessPeriod)
	case a.BidiHexPeriod < 0:
		return nil, fmt.Errorf("arch %s: BidiHexPeriod must be >= 0, got %d", a.Name, a.BidiHexPeriod)
	case a.BRAMColumnPeriod < 0 || a.BRAMColumnPeriod == 1:
		return nil, fmt.Errorf("arch %s: BRAMColumnPeriod must be 0 or >= 2, got %d", a.Name, a.BRAMColumnPeriod)
	}
	a.singleBase = firstArchWire
	a.hexBase = a.singleBase + Wire(4*a.SinglesPerDir)
	a.hexMidBase = a.hexBase + Wire(4*a.HexesPerDir)
	a.longHBase = a.hexMidBase + Wire(2*a.HexesPerDir)
	a.longVBase = a.longHBase + Wire(a.NumLong)
	a.wireCount = a.longVBase + Wire(a.NumLong)
	a.classTab = make([]Class, a.wireCount)
	for w := range a.classTab {
		a.classTab[w] = a.classify(Wire(w))
	}
	a.slotOf = make([]int16, a.wireCount)
	for w := range a.slotOf {
		a.slotOf[w] = -1
		if a.IsCanonicalWire(Wire(w)) {
			a.slotOf[w] = int16(len(a.slotWire))
			a.slotWire = append(a.slotWire, Wire(w))
		}
	}
	a.names = make(map[string]Wire, a.wireCount)
	for w := range a.wireCount {
		a.names[a.WireName(w)] = w
	}
	a.setLayout(a.buildFanout())
	return &a, nil
}

// NewVirtex returns the Virtex-class architecture of the paper's §2: 24
// singles per direction, 12 CLB-accessible hexes per direction of length 6
// (even-indexed hexes bidirectional), and 12 horizontal plus 12 vertical
// long lines accessible every 6 blocks.
func NewVirtex() *Arch {
	a, err := New(Arch{
		Name:             "virtex",
		SinglesPerDir:    24,
		HexesPerDir:      12,
		HexLen:           6,
		NumLong:          12,
		LongAccessPeriod: 6,
		BidiHexPeriod:    2,
		BRAMColumnPeriod: 12,
	})
	if err != nil {
		panic(err) // built from constants; cannot fail
	}
	return a
}

// NewKestrel returns a deliberately different fabric used for the §5
// portability experiments: 16 singles per direction, 8 quad-length lines per
// direction (all bidirectional), 8 long lines with period-4 access. The
// JRoute API and the architecture-independent algorithms must work on it
// unchanged.
func NewKestrel() *Arch {
	a, err := New(Arch{
		Name:             "kestrel",
		SinglesPerDir:    16,
		HexesPerDir:      8,
		HexLen:           4,
		NumLong:          8,
		LongAccessPeriod: 4,
		BidiHexPeriod:    1,
		BRAMColumnPeriod: 8,
	})
	if err != nil {
		panic(err)
	}
	return a
}

// ByName maps an architecture name, as configs and the wire protocol spell
// it, to its constructor. The empty name is the default, Virtex.
func ByName(name string) (*Arch, error) {
	switch name {
	case "", "virtex":
		return NewVirtex(), nil
	case "kestrel":
		return NewKestrel(), nil
	default:
		return nil, fmt.Errorf("arch: unknown architecture %q", name)
	}
}

// WireCount is the size of the per-tile wire name space.
func (a *Arch) WireCount() int { return int(a.wireCount) }

// dirBlock is the position of direction d's block within the singles and
// the hexes, which are laid out North, East, South, West.
func dirBlock(d Dir) (int, bool) { return int(d) - int(North), d >= North && d <= West }

// Single returns the single-length wire in direction d with index i.
// The name refers to the track connecting this tile to its d-neighbour:
// SingleEast[5] at (5,7) and SingleWest[5] at (5,8) are the same track.
func (a *Arch) Single(d Dir, i int) Wire {
	bi, ok := dirBlock(d)
	if !ok || i < 0 || i >= a.SinglesPerDir {
		return Invalid
	}
	return a.singleBase + Wire(bi*a.SinglesPerDir+i)
}

// Hex returns the intermediate-length wire in direction d with index i.
// The name refers to the track whose far endpoint is HexLen tiles away in
// direction d.
func (a *Arch) Hex(d Dir, i int) Wire {
	bi, ok := dirBlock(d)
	if !ok || i < 0 || i >= a.HexesPerDir {
		return Invalid
	}
	return a.hexBase + Wire(bi*a.HexesPerDir+i)
}

// HexMid returns the wire naming, at its midpoint tile, the hex whose
// canonical direction is d (North or East only) with index i. The canonical
// origin is HexLen/2 tiles in direction d.Opposite() from the naming tile.
func (a *Arch) HexMid(d Dir, i int) Wire {
	var bi int
	switch d {
	case North:
		bi = 0
	case East:
		bi = 1
	default:
		return Invalid
	}
	if i < 0 || i >= a.HexesPerDir {
		return Invalid
	}
	return a.hexMidBase + Wire(bi*a.HexesPerDir+i)
}

// LongH returns the i'th horizontal long line of the row.
func (a *Arch) LongH(i int) Wire {
	if i < 0 || i >= a.NumLong {
		return Invalid
	}
	return a.longHBase + Wire(i)
}

// LongV returns the i'th vertical long line of the column.
func (a *Arch) LongV(i int) Wire {
	if i < 0 || i >= a.NumLong {
		return Invalid
	}
	return a.longVBase + Wire(i)
}

// Class describes a wire: its resource kind, direction (for directional
// resources; for KindHexMid the canonical direction), and index within its
// block (for pins, the pin number).
type Class struct {
	Kind  Kind
	Dir   Dir
	Index int
}

var blockDirs = [4]Dir{North, East, South, West}

// ClassOf classifies a wire within this architecture's name space: a
// table lookup, since every search expansion asks it.
func (a *Arch) ClassOf(w Wire) Class {
	if uint(w) < uint(len(a.classTab)) {
		return a.classTab[w]
	}
	return a.classify(w)
}

// classify is ClassOf computed from the layout.
func (a *Arch) classify(w Wire) Class {
	switch {
	case w >= 0 && w < Wire(NumOutPins):
		return Class{KindOutPin, DirNone, int(w)}
	case w >= outMuxBase && w < outMuxBase+NumOutMux:
		return Class{KindOutMux, DirNone, int(w - outMuxBase)}
	case w >= inputBase && w < inputBase+NumInputs:
		return Class{KindInput, DirNone, int(w - inputBase)}
	case w >= ctrlBase && w < ctrlBase+NumCtrl:
		return Class{KindCtrl, DirNone, int(w - ctrlBase)}
	case w >= gclkBase && w < gclkBase+NumGClk:
		return Class{KindGClk, DirNone, int(w - gclkBase)}
	case w >= outAliasBase && w < outAliasBase+NumOutPins:
		return Class{KindOutAlias, West, int(w - outAliasBase)}
	case w >= iobInBase && w < iobInBase+NumIOBIn:
		return Class{KindIOBIn, DirNone, int(w - iobInBase)}
	case w >= iobOutBase && w < iobOutBase+NumIOBOut:
		return Class{KindIOBOut, DirNone, int(w - iobOutBase)}
	case w >= bramAddrBase && w < bramWEWire:
		return Class{KindBRAMIn, DirNone, int(w - bramAddrBase)}
	case w == bramWEWire:
		return Class{KindBRAMIn, DirNone, NumBRAMAddr + NumBRAMDin}
	case w == bramClkWire:
		return Class{KindBRAMClk, DirNone, 0}
	case w >= bramDoutBase && w < bramDoutBase+NumBRAMDout:
		return Class{KindBRAMOut, DirNone, int(w - bramDoutBase)}
	case w >= a.singleBase && w < a.hexBase:
		off := int(w - a.singleBase)
		return Class{KindSingle, blockDirs[off/a.SinglesPerDir], off % a.SinglesPerDir}
	case w >= a.hexBase && w < a.hexMidBase:
		off := int(w - a.hexBase)
		return Class{KindHex, blockDirs[off/a.HexesPerDir], off % a.HexesPerDir}
	case w >= a.hexMidBase && w < a.longHBase:
		off := int(w - a.hexMidBase)
		return Class{KindHexMid, blockDirs[off/a.HexesPerDir], off % a.HexesPerDir}
	case w >= a.longHBase && w < a.longVBase:
		return Class{KindLongH, DirNone, int(w - a.longHBase)}
	case w >= a.longVBase && w < a.wireCount:
		return Class{KindLongV, DirNone, int(w - a.longVBase)}
	default:
		return Class{KindInvalid, DirNone, -1}
	}
}

// WireName renders a wire name in the paper's style, e.g. "SingleEast[5]",
// "HexNorth[4]", "Out[1]", "S1YQ", "LongH[3]".
func (a *Arch) WireName(w Wire) string {
	if s, ok := fixedWireName(w); ok {
		return s
	}
	c := a.ClassOf(w)
	switch c.Kind {
	case KindSingle:
		return fmt.Sprintf("Single%s[%d]", c.Dir, c.Index)
	case KindHex:
		return fmt.Sprintf("Hex%s[%d]", c.Dir, c.Index)
	case KindHexMid:
		return fmt.Sprintf("HexMid%s[%d]", c.Dir, c.Index)
	case KindLongH:
		return fmt.Sprintf("LongH[%d]", c.Index)
	case KindLongV:
		return fmt.Sprintf("LongV[%d]", c.Index)
	default:
		return fmt.Sprintf("Wire(%d)", int32(w))
	}
}

// IsCanonicalWire reports whether w is in canonical form: singles and hexes
// named North or East, all pins and muxes, longs, and global clocks. South
// and West singles/hexes, HexMid names, and OutAlias names are aliases.
func (a *Arch) IsCanonicalWire(w Wire) bool {
	c := a.ClassOf(w)
	switch c.Kind {
	case KindSingle, KindHex:
		return c.Dir == North || c.Dir == East
	case KindHexMid, KindOutAlias, KindInvalid:
		return false
	default:
		return true
	}
}

// Slots returns the number of canonical wire names: the track slots of one
// tile (164 on Virtex).
func (a *Arch) Slots() int { return len(a.slotWire) }

// SlotOf returns the slot of a canonical wire name, or -1 for an alias name
// or a wire outside the name space. Slots ascend with wire numbers.
func (a *Arch) SlotOf(w Wire) int {
	if uint(w) < uint(len(a.slotOf)) {
		return int(a.slotOf[w])
	}
	return -1
}

// SlotWire is the inverse of SlotOf: the canonical wire name of slot s.
func (a *Arch) SlotWire(s int) Wire { return a.slotWire[s] }

// HexBidirectional reports whether hex index i can be driven from both
// endpoints.
func (a *Arch) HexBidirectional(i int) bool {
	return a.BidiHexPeriod > 0 && i%a.BidiHexPeriod == 0
}

// BRAMColumn reports whether the column hosts block RAM.
func (a *Arch) BRAMColumn(col int) bool {
	return a.BRAMColumnPeriod > 0 && col%a.BRAMColumnPeriod == a.BRAMColumnPeriod/2
}

// DeviceSize names one array size of a family, e.g. XCV50-class 16x24.
type DeviceSize struct {
	Name string
	Rows int
	Cols int
}

// VirtexSizes lists the array-size range given in §2: "The array sizes for
// Virtex range from 16x24 CLBs to 64x96 CLBs."
func VirtexSizes() []DeviceSize {
	return []DeviceSize{
		{"XCV50c", 16, 24},
		{"XCV300c", 32, 48},
		{"XCV800c", 56, 84},
		{"XCV1000c", 64, 96},
	}
}
