package device

import (
	"testing"

	"repro/internal/arch"
)

// TestLogicReadsStayInTheirField: with every logic bit of a BRAM-column
// tile set — four LUTs 0xFFFF, four flip-flops 1, the BRAM's words 0xFF —
// a LUT or flip-flop index just outside 0..3 and a tile off the array
// answer zero, unused: no read strays into a neighbouring field's bits. A
// LUT's used flag is read, not inferred from its truth table.
func TestLogicReadsStayInTheirField(t *testing.T) {
	d := virtexDev(t)
	row, col := 5, 6
	if !d.A.BRAMColumn(col) {
		t.Fatalf("column %d is not a BRAM column", col)
	}
	var full [arch.BRAMWords]byte
	for i := range full {
		full[i] = 0xff
	}
	if err := d.SetBRAMInit(row, col, full); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < NumLUTs; n++ {
		if err := d.SetLUT(row, col, n, 0xffff); err != nil {
			t.Fatal(err)
		}
		if err := d.SetFFInit(row, col, n, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{-1, NumLUTs} {
		if v, used := d.GetLUT(row, col, n); v != 0 || used {
			t.Errorf("GetLUT(%d,%d,%d) = %#x, %v; want 0, unused", row, col, n, v, used)
		}
		if d.FFInit(row, col, n) {
			t.Errorf("FFInit(%d,%d,%d) = true", row, col, n)
		}
	}
	for _, at := range []Coord{{-1, col}, {d.Rows, col}, {row, -1}, {row, d.Cols}} {
		if v, used := d.GetLUT(at.Row, at.Col, 0); v != 0 || used {
			t.Errorf("GetLUT off the array at %v = %#x, %v", at, v, used)
		}
		if d.FFInit(at.Row, at.Col, 0) || d.CLBActive(at.Row, at.Col) {
			t.Errorf("flip-flop or CLB reads set off the array at %v", at)
		}
		if w, used := d.GetBRAMInit(at.Row, at.Col); w != ([arch.BRAMWords]byte{}) || used {
			t.Errorf("GetBRAMInit off the array at %v = %v, %v", at, w, used)
		}
	}
	if v, used := d.GetLUT(row, col, NumLUTs-1); v != 0xffff || !used {
		t.Errorf("GetLUT(%d,%d,%d) = %#x, %v; want 0xffff, used", row, col, NumLUTs-1, v, used)
	}
	// Used is its own bit: a zero truth table may be used, a cleared LUT
	// and one never set are not.
	if err := d.SetLUT(row, col, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ClearLUT(row, col, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		row, col, n int
		used        bool
	}{{row, col, 1, true}, {row, col, 2, false}, {row + 1, col, 0, false}} {
		if v, used := d.GetLUT(c.row, c.col, c.n); v != 0 || used != c.used {
			t.Errorf("GetLUT(%d,%d,%d) = %#x, %v; want 0, %v", c.row, c.col, c.n, v, used, c.used)
		}
	}
}

// TestRebuildRejectsBRAMOffColumn: a bitstream that marks a block RAM used
// at a tile off the BRAM columns is corrupt, and RebuildFromBits says so;
// the same bit on a BRAM column rebuilds.
func TestRebuildRejectsBRAMOffColumn(t *testing.T) {
	d := virtexDev(t)
	used := d.layout.bramBase + bramBits
	if err := d.bits.SetBit(3, 6, used, true); err != nil {
		t.Fatal(err)
	}
	if err := d.RebuildFromBits(); err != nil {
		t.Fatalf("a used BRAM on a BRAM column: %v", err)
	}
	if err := d.bits.SetBit(3, 7, used, true); err != nil {
		t.Fatal(err)
	}
	if err := d.RebuildFromBits(); err == nil {
		t.Error("a used BRAM off the BRAM columns rebuilt")
	}
}
