package arch

import (
	"embed"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// PIP bit planes. A frame is one byte plane of one column, so an op ships a
// frame per (column, plane) its PIPs touch. planes/<name>.txt, written by
// the census in internal/scenario, lists pair indices that routes set
// together, eight to a plane, after a "pairs=<hex>" line keying it to the
// enumeration it indexes; a changed architecture model falls back to
// enumeration order until the census is re-run.
//
//go:embed planes/*.txt
var planeFiles embed.FS

// PIPPairs enumerates a tile's (from, to) pairs in wire order: the list a
// plane table indexes. New enumerates it once and keeps it in bit order
// (PIPBits); the oracle derives its own as the independent reference.
func (a *Arch) PIPPairs() [][2]Wire {
	var pairs [][2]Wire
	for from := range a.wireCount {
		for _, to := range a.LocalFanout(from) {
			pairs = append(pairs, [2]Wire{from, to})
		}
	}
	return pairs
}

// HashPairs fingerprints a pair order (FNV-1a over the wire numbers).
func HashPairs(pairs [][2]Wire) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pairs {
		h = (h ^ uint64(uint32(p[0]))) * 1099511628211
		h = (h ^ uint64(uint32(p[1]))) * 1099511628211
	}
	return h
}

// setLayout applies the family's plane table if it is keyed to the
// enumeration pairs, keeps the bit order that results with each pair's bit,
// and fingerprints it. A bit is an int16 in the pair table, so a family
// with more pairs than that holds is refused rather than truncated.
func (a *Arch) setLayout(pairs [][2]Wire) error {
	if len(pairs) > math.MaxInt16 {
		return fmt.Errorf("arch %s: %d PIP pairs a tile; the pair table numbers at most %d",
			a.Name, len(pairs), math.MaxInt16)
	}
	raw, _ := planeFiles.ReadFile("planes/" + a.Name + ".txt")
	if _, tab, ok := strings.Cut(string(raw), fmt.Sprintf("pairs=%016x\n", HashPairs(pairs))); ok {
		for _, f := range strings.Fields(tab) {
			i, _ := strconv.Atoi(f)
			a.planes = append(a.planes, i)
		}
	}
	a.pipPairs = a.PIPOrder(pairs)
	n := int(a.wireCount)
	a.pipBit = make([]int16, n*n)
	for i := range a.pipBit {
		a.pipBit[i] = -1
	}
	for i, p := range a.pipPairs {
		a.pipBit[int(p[0])*n+int(p[1])] = int16(i)
	}
	a.layoutPrint = fmt.Sprintf("%016x", HashPairs(a.pipPairs))
	return nil
}

// PIPBit returns the tile's configuration bit of the PIP (from -> to), and
// whether the connectivity rules allow that PIP at all: legality and bit
// position in one read of the pair table. A wire outside the name space,
// Invalid included, has no PIP.
func (a *Arch) PIPBit(from, to Wire) (int, bool) {
	if uint(from) >= uint(a.wireCount) || uint(to) >= uint(a.wireCount) {
		return -1, false
	}
	i := a.pipBit[int(from)*int(a.wireCount)+int(to)]
	return int(i), i >= 0
}

// PIPBits returns the tile's PIP pairs in bit order, the inverse of
// PIPBit. The slice is shared; callers must not modify it.
func (a *Arch) PIPBits() [][2]Wire { return a.pipPairs }

// PIPOrder returns the per-tile bit order of pairs, an enumeration as
// PIPPairs derives it: the pairs the plane table lists, in its order, then
// the rest in enumeration order. An empty table is enumeration order.
func (a *Arch) PIPOrder(pairs [][2]Wire) [][2]Wire {
	out := make([][2]Wire, 0, len(pairs))
	listed := make([]bool, len(pairs))
	for _, i := range a.planes {
		out, listed[i] = append(out, pairs[i]), true
	}
	for i, p := range pairs {
		if !listed[i] {
			out = append(out, p)
		}
	}
	return out
}

// Layouts maps every family ByName knows to the fingerprint of its PIP bit
// order. A service hello carries it: two ends whose layouts differ would
// decode each other's frames into the wrong PIPs.
var Layouts = sync.OnceValue(func() map[string]string {
	return map[string]string{"virtex": NewVirtex().layoutPrint, "kestrel": NewKestrel().layoutPrint}
})
