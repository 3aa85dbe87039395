package arch

import (
	"fmt"
	"strings"
)

// TemplateValue is "a value describing a direction and a resource type"
// (§3): NORTH6 matches any hex wire driven northward, NORTH1 any single
// driven northward, and so on. OUTMUX, CLBIN, FEEDBACK, DIRECT and GCLK
// cover the non-directional steps of a route.
type TemplateValue uint8

// Template values. TVClbIn matches a hop onto any CLB input or control pin;
// TVGClk matches the hop from a dedicated global clock net onto a clock pin.
const (
	TVNone TemplateValue = iota
	TVOutMux
	TVClbIn
	TVFeedback
	TVDirect
	TVGClk
	TVNorth1
	TVEast1
	TVSouth1
	TVWest1
	TVNorth6
	TVEast6
	TVSouth6
	TVWest6
	TVLongH
	TVLongV
	numTemplateValues
)

var tvNames = [numTemplateValues]string{
	"NONE", "OUTMUX", "CLBIN", "FEEDBACK", "DIRECT", "GCLK",
	"NORTH1", "EAST1", "SOUTH1", "WEST1",
	"NORTH6", "EAST6", "SOUTH6", "WEST6",
	"LONGH", "LONGV",
}

// String returns the paper-style upper-case name of the template value.
func (v TemplateValue) String() string {
	if v >= numTemplateValues {
		return fmt.Sprintf("TemplateValue(%d)", uint8(v))
	}
	return tvNames[v]
}

// ParseTemplateValue parses a paper-style name such as "NORTH6" or "OUTMUX".
func ParseTemplateValue(s string) (TemplateValue, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	for i := TemplateValue(1); i < numTemplateValues; i++ {
		if tvNames[i] == u {
			return i, nil
		}
	}
	return TVNone, fmt.Errorf("arch: unknown template value %q", s)
}

// SingleTV returns the single-length template value for direction d.
func SingleTV(d Dir) TemplateValue {
	switch d {
	case North:
		return TVNorth1
	case East:
		return TVEast1
	case South:
		return TVSouth1
	case West:
		return TVWest1
	}
	return TVNone
}

// HexTV returns the intermediate-length template value for direction d.
func HexTV(d Dir) TemplateValue {
	switch d {
	case North:
		return TVNorth6
	case East:
		return TVEast6
	case South:
		return TVSouth6
	case West:
		return TVWest6
	}
	return TVNone
}

// TVDir returns the travel direction encoded in a directional template
// value, or DirNone.
func TVDir(v TemplateValue) Dir {
	switch v {
	case TVNorth1, TVNorth6:
		return North
	case TVEast1, TVEast6:
		return East
	case TVSouth1, TVSouth6:
		return South
	case TVWest1, TVWest6:
		return West
	}
	return DirNone
}

// TVSpan returns the tile distance one hop of this template value travels
// under architecture a (singles 1, hexes HexLen, others 0; longs are
// variable and return 0).
func (a *Arch) TVSpan(v TemplateValue) int {
	switch v {
	case TVNorth1, TVEast1, TVSouth1, TVWest1:
		return 1
	case TVNorth6, TVEast6, TVSouth6, TVWest6:
		return a.HexLen
	default:
		return 0
	}
}

// DriveTemplate classifies the PIP (from -> to), both given as local names
// at the PIP's tile, under the template vocabulary. The direction of a
// directional value is the direction of signal travel, which for singles
// and hexes is the direction in the target's local name (driving
// SingleWest[5] at a tile sends the signal west along the track whose far
// end is to the west).
func (a *Arch) DriveTemplate(from, to Wire) TemplateValue {
	tc := a.ClassOf(to)
	switch tc.Kind {
	case KindOutMux:
		return TVOutMux
	case KindIOBOut:
		return TVClbIn // pad entry classifies like a pin entry
	case KindInput, KindCtrl, KindBRAMIn, KindBRAMClk:
		fc := a.ClassOf(from)
		switch fc.Kind {
		case KindOutPin:
			return TVFeedback
		case KindOutAlias:
			return TVDirect
		case KindGClk:
			return TVGClk
		default:
			return TVClbIn
		}
	case KindSingle:
		return SingleTV(tc.Dir)
	case KindHex:
		return HexTV(tc.Dir)
	case KindLongH:
		return TVLongH
	case KindLongV:
		return TVLongV
	default:
		return TVNone
	}
}
