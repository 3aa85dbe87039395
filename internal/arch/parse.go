package arch

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseWire parses a paper-style wire name ("S1YQ", "Out[1]",
// "SingleEast[5]", "HexMidNorth[2]", "LongH[3]", "GClk[0]", "West.S0Y")
// into a Wire of this architecture. It accepts exactly the names WireName
// prints, after trimming surrounding space.
func (a *Arch) ParseWire(s string) (Wire, error) {
	if w, ok := a.names[strings.TrimSpace(s)]; ok {
		return w, nil
	}
	return Invalid, fmt.Errorf("arch %s: unknown wire name %q", a.Name, s)
}

// ParsePin parses "row,col,WIRE" (e.g. "5,7,S1YQ") into its parts.
func (a *Arch) ParsePin(s string) (row, col int, w Wire, err error) {
	parts := strings.SplitN(s, ",", 3)
	if len(parts) != 3 {
		return 0, 0, Invalid, fmt.Errorf("arch: pin %q is not row,col,wire", s)
	}
	row, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, Invalid, fmt.Errorf("arch: bad row in %q: %w", s, err)
	}
	col, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, Invalid, fmt.Errorf("arch: bad col in %q: %w", s, err)
	}
	w, err = a.ParseWire(parts[2])
	return row, col, w, err
}
