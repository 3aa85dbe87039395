package device

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// bitLayout maps the logical per-tile configuration (PIPs, LUT truth
// tables, flip-flop init values) onto bit positions in the tile's slice of
// the configuration bitstream. The layout is a function of the architecture
// only, so any two devices of the same family agree on it — which is what
// makes shipping bitstreams between them meaningful. The PIP bits come
// first, one per pair in the architecture's bit order (Arch.PIPBit, which
// follows the family's plane table: pairs that routes set together share a
// byte plane, so an op dirties fewer frames); the logic bits follow.
type bitLayout struct {
	lutBase      int
	ffInitBase   int
	lutUsedBase  int
	bramBase     int // bramBits content bits + 1 used bit
	bitsPerTile  int
	bytesPerTile int
}

// Logic resources per CLB: two slices, each with an F and a G 4-input LUT
// and two flip-flops (XQ = registered F output, YQ = registered G output).
const (
	NumLUTs  = 4 // S0F, S0G, S1F, S1G
	NumFFs   = 4 // S0XQ, S0YQ, S1XQ, S1YQ
	lutBits  = 16
	ffBits   = 1
	usedBits = 1
	bramBits = arch.BRAMWords * arch.BRAMWidth // a site's words; its used bit follows
)

// LUT indices.
const (
	LUTS0F = iota
	LUTS0G
	LUTS1F
	LUTS1G
)

// FF indices.
const (
	FFS0XQ = iota
	FFS0YQ
	FFS1XQ
	FFS1YQ
)

func newBitLayout(a *arch.Arch) bitLayout {
	l := bitLayout{lutBase: len(a.PIPBits())}
	l.ffInitBase = l.lutBase + NumLUTs*lutBits
	l.lutUsedBase = l.ffInitBase + NumFFs*ffBits
	l.bramBase = l.lutUsedBase + NumLUTs*usedBits
	l.bitsPerTile = l.bramBase + bramBits + 1
	l.bytesPerTile = (l.bitsPerTile + 7) / 8
	return l
}

// PIPBitCount returns the number of distinct PIP configuration bits per
// tile (used by the architecture audit of experiment E1).
func (d *Device) PIPBitCount() int { return d.layout.lutBase }

// Logic configuration lives only in the tile's bits, so a device reads
// what a stream wrote whether or not its routing state was rebuilt: a
// LUT's truth table at lutBase, its used flag at lutUsedBase, a flip-flop's
// init value at ffInitBase, a BRAM site's words and used flag at bramBase.
// A read off the array or of an index out of range answers zero, unused.

func (d *Device) lutSiteOK(row, col, n int) error {
	if row < 0 || row >= d.Rows || col < 0 || col >= d.Cols {
		return fmt.Errorf("device: tile (%d,%d) outside array", row, col)
	}
	if n < 0 || n >= NumLUTs {
		return fmt.Errorf("device: LUT index %d (want 0..%d)", n, NumLUTs-1)
	}
	return nil
}

// SetLUT configures the truth table of LUT n at (row, col) and marks the
// LUT as used. Truth-table bit i gives the output for input value i, where
// input bit 0 is F1/G1 and bit 3 is F4/G4.
func (d *Device) SetLUT(row, col, n int, truth uint16) error {
	return d.writeLUT(row, col, n, truth, true)
}

// ClearLUT unconfigures a LUT.
func (d *Device) ClearLUT(row, col, n int) error {
	return d.writeLUT(row, col, n, 0, false)
}

func (d *Device) writeLUT(row, col, n int, truth uint16, used bool) error {
	if err := d.lutSiteOK(row, col, n); err != nil {
		return err
	}
	if err := d.bits.SetBits(row, col, d.layout.lutBase+n*lutBits, lutBits, uint64(truth)); err != nil {
		return err
	}
	return d.bits.SetBit(row, col, d.layout.lutUsedBase+n, used)
}

// GetLUT returns a LUT's truth table and whether the LUT is in use.
func (d *Device) GetLUT(row, col, n int) (uint16, bool) {
	if d.lutSiteOK(row, col, n) != nil {
		return 0, false
	}
	if used, _ := d.bits.GetBit(row, col, d.layout.lutUsedBase+n); !used {
		return 0, false
	}
	v, _ := d.bits.GetBits(row, col, d.layout.lutBase+n*lutBits, lutBits)
	return uint16(v), true
}

// SetFFInit sets the initial (power-up) value of flip-flop n at (row, col).
func (d *Device) SetFFInit(row, col, n int, v bool) error {
	if err := d.lutSiteOK(row, col, n); err != nil {
		return err
	}
	return d.bits.SetBit(row, col, d.layout.ffInitBase+n, v)
}

// FFInit returns the initial value of flip-flop n at (row, col).
func (d *Device) FFInit(row, col, n int) bool {
	if d.lutSiteOK(row, col, n) != nil {
		return false
	}
	v, _ := d.bits.GetBit(row, col, d.layout.ffInitBase+n)
	return v
}

// CLBActive reports whether any LUT of the CLB is configured.
func (d *Device) CLBActive(row, col int) bool {
	used, _ := d.bits.GetBits(row, col, d.layout.lutUsedBase, NumLUTs)
	return used != 0
}

// ActiveCLBs returns the coordinates of all CLBs with configured logic,
// in row-major order.
func (d *Device) ActiveCLBs() []Coord {
	var out []Coord
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			if d.CLBActive(row, col) {
				out = append(out, Coord{row, col})
			}
		}
	}
	return out
}

// Block RAM configuration (§6 future work, implemented): each tile of a
// BRAM column hosts a BRAMWords x BRAMWidth synchronous RAM whose initial
// contents live in the tile's configuration bits.

func (d *Device) bramSiteOK(row, col int) error {
	if row < 0 || row >= d.Rows || col < 0 || col >= d.Cols {
		return fmt.Errorf("device: tile (%d,%d) outside array", row, col)
	}
	if !d.A.BRAMColumn(col) {
		return fmt.Errorf("device: column %d is not a BRAM column", col)
	}
	return nil
}

// SetBRAMInit configures a block RAM site's initial contents and marks it
// used.
func (d *Device) SetBRAMInit(row, col int, words [arch.BRAMWords]byte) error {
	return d.writeBRAM(row, col, words, true)
}

// ClearBRAM unconfigures a block RAM site.
func (d *Device) ClearBRAM(row, col int) error {
	return d.writeBRAM(row, col, [arch.BRAMWords]byte{}, false)
}

func (d *Device) writeBRAM(row, col int, words [arch.BRAMWords]byte, used bool) error {
	if err := d.bramSiteOK(row, col); err != nil {
		return err
	}
	for i, wv := range words {
		if err := d.bits.SetBits(row, col, d.layout.bramBase+i*arch.BRAMWidth, arch.BRAMWidth, uint64(wv)); err != nil {
			return err
		}
	}
	return d.bits.SetBit(row, col, d.layout.bramBase+bramBits, used)
}

// bramUsed reads a site's used bit; a tile off the BRAM columns has none.
func (d *Device) bramUsed(row, col int) bool {
	used, _ := d.bits.GetBit(row, col, d.layout.bramBase+bramBits)
	return used && d.A.BRAMColumn(col)
}

// GetBRAMInit returns a site's initial contents and whether it is used.
func (d *Device) GetBRAMInit(row, col int) ([arch.BRAMWords]byte, bool) {
	var words [arch.BRAMWords]byte
	if !d.bramUsed(row, col) {
		return words, false
	}
	for i := range words {
		v, _ := d.bits.GetBits(row, col, d.layout.bramBase+i*arch.BRAMWidth, arch.BRAMWidth)
		words[i] = byte(v)
	}
	return words, true
}

// ActiveBRAMs returns the configured block-RAM sites in row-major order.
func (d *Device) ActiveBRAMs() []Coord {
	var out []Coord
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			if d.bramUsed(row, col) {
				out = append(out, Coord{row, col})
			}
		}
	}
	return out
}

// FullConfig, PartialConfig, ClearDirty and ApplyConfig expose the
// configuration port; see package bitstream for the stream format.

// FullConfig serializes the whole device configuration.
func (d *Device) FullConfig() ([]byte, error) { return d.bits.FullConfig() }

// PartialConfig serializes only the frames dirtied since the last
// ClearDirty — the partial bitstream of a run-time reconfiguration step.
func (d *Device) PartialConfig() ([]byte, error) { return d.bits.PartialConfig() }

// AppendPartialConfig serializes the dirty frames onto dst, reusing its
// capacity — the allocation-free PartialConfig for pooled buffers.
func (d *Device) AppendPartialConfig(dst []byte) ([]byte, error) {
	return d.bits.AppendPartialConfig(dst)
}

// DirtyFrameCount returns how many frames a PartialConfig would ship.
func (d *Device) DirtyFrameCount() int { return d.bits.DirtyCount() }

// FrameCount returns the total number of configuration frames.
func (d *Device) FrameCount() int { return d.bits.FrameCount() }

// ClearDirty forgets the dirty-frame set.
func (d *Device) ClearDirty() { d.bits.ClearDirty() }

// DiffFrames returns the configuration frames in which two same-family
// devices differ — the readback-verification primitive.
func (d *Device) DiffFrames(o *Device) ([]bitstream.FrameAddr, error) {
	return d.bits.DiffFrames(o.bits)
}

// ApplyConfig loads a configuration stream (full or partial) into the
// device and rebuilds the routing state from the new bits; the logic
// configuration is read from the bits as they stand. A CRC or format error
// leaves the state rebuilt from whatever bits landed, and is returned.
func (d *Device) ApplyConfig(stream []byte) error {
	_, err := d.bits.ApplyConfig(stream)
	if rerr := d.RebuildFromBits(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// ApplyFramesRaw patches the configuration bitstream without reconstructing
// the in-memory routing state, and reports the frames written — the
// per-configuration traffic counter a Board needs. LUT, flip-flop and BRAM
// reads see the new bits at once; the caller owns calling RebuildFromBits
// before reading routing state — the cheap path for passive mirrors that
// apply many partial streams and only occasionally inspect their routing.
func (d *Device) ApplyFramesRaw(stream []byte) (int, error) {
	return d.bits.ApplyConfig(stream)
}

// RebuildFromBits reconstructs the in-memory routing state from the
// configuration bitstream — the readback direction; logic configuration
// has no state but its bits. It fails if the bits encode contention,
// reference impossible resources or mark a BRAM used off the BRAM columns,
// which is how a corrupt bitstream surfaces.
func (d *Device) RebuildFromBits() error {
	d.resetRouting()
	pairs := d.A.PIPBits()
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			// PIP bits, 64 at a time, skipping zero words.
			for base := 0; base < len(pairs); base += 64 {
				width := min(64, len(pairs)-base)
				word, err := d.bits.GetBits(row, col, base, width)
				if err != nil {
					return err
				}
				for word != 0 {
					i := bits.TrailingZeros64(word)
					word &^= 1 << i
					p := PIP{row, col, pairs[base+i][0], pairs[base+i][1]}
					from, to, _, err := d.validatePIP(p)
					if err != nil {
						return fmt.Errorf("device: bitstream encodes illegal PIP: %w", err)
					}
					ti := d.TrackIndex(to)
					if d.Driven(ti) {
						return &ContentionError{Track: to, Existing: d.driverAt(ti), Attempt: p, Name: d.A.WireName(to.W)}
					}
					d.link(p, d.TrackIndex(from), ti)
				}
			}
			if used, _ := d.bits.GetBit(row, col, d.layout.bramBase+bramBits); used && !d.A.BRAMColumn(col) {
				return fmt.Errorf("device: bitstream marks BRAM at non-BRAM tile (%d,%d)", row, col)
			}
		}
	}
	return nil
}
