package jbits

import (
	"testing"

	"repro/internal/arch"
)

func newSessionBoard(t *testing.T) (*Session, *Board) {
	t.Helper()
	a := arch.NewVirtex()
	s, err := NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBoard("bench-board", a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestSetGet(t *testing.T) {
	s, _ := newSessionBoard(t)
	if s.Get(5, 7, arch.S1YQ, arch.Out(1)) {
		t.Error("PIP on in fresh session")
	}
	if err := s.Set(5, 7, arch.S1YQ, arch.Out(1), true); err != nil {
		t.Fatal(err)
	}
	if !s.Get(5, 7, arch.S1YQ, arch.Out(1)) {
		t.Error("PIP not on after Set")
	}
	if err := s.Set(5, 7, arch.S1YQ, arch.Out(1), false); err != nil {
		t.Fatal(err)
	}
	if s.Get(5, 7, arch.S1YQ, arch.Out(1)) {
		t.Error("PIP on after clear")
	}
	if err := s.SetLUT(3, 3, 0, 0x8000); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.GetLUT(3, 3, 0); !ok || v != 0x8000 {
		t.Errorf("GetLUT = %#x, %v", v, ok)
	}
}

func TestFullThenPartialSync(t *testing.T) {
	s, b := newSessionBoard(t)
	s.Set(5, 7, arch.S1YQ, arch.Out(1), true)
	s.SetLUT(6, 8, 0, 0xF0F0)

	full, err := s.SyncFull(b)
	if err != nil {
		t.Fatal(err)
	}
	if full != s.Dev.FrameCount() {
		t.Errorf("full sync shipped %d frames, want %d", full, s.Dev.FrameCount())
	}
	if n, err := s.VerifyReadback(b); err != nil || n != 0 {
		t.Fatalf("readback after full sync: %d diffs, %v", n, err)
	}
	// The board's own state reflects the design.
	if !b.Device().PIPIsOn(5, 7, arch.S1YQ, arch.Out(1)) {
		t.Error("board missing the PIP")
	}
	if v, ok := b.Device().GetLUT(6, 8, 0); !ok || v != 0xF0F0 {
		t.Errorf("board LUT = %#x, %v", v, ok)
	}

	// An RTR step: one more PIP, partial sync ships very few frames.
	s.Set(5, 7, arch.Out(1), s.Dev.A.Single(arch.East, 5), true)
	partial, err := s.SyncPartial(b)
	if err != nil {
		t.Fatal(err)
	}
	if partial == 0 || partial >= full/10 {
		t.Errorf("partial sync shipped %d frames (full was %d)", partial, full)
	}
	if n, _ := s.VerifyReadback(b); n != 0 {
		t.Errorf("readback after partial sync: %d diffs", n)
	}
	if b.Configurations != 2 {
		t.Errorf("board saw %d configurations, want 2", b.Configurations)
	}
	if b.FramesWritten != full+partial {
		t.Errorf("board counted %d frames, want %d", b.FramesWritten, full+partial)
	}
	if b.BytesWritten == 0 {
		t.Error("no bytes counted")
	}
}

func TestPartialWithoutChangesIsEmptyish(t *testing.T) {
	s, b := newSessionBoard(t)
	if _, err := s.SyncFull(b); err != nil {
		t.Fatal(err)
	}
	n, err := s.SyncPartial(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("no-change partial shipped %d frames", n)
	}
	if d, _ := s.VerifyReadback(b); d != 0 {
		t.Errorf("readback diff %d", d)
	}
}

// SyncPartial serializes into a buffer the session keeps, so a large ship
// followed by small ones must neither leak the large stream's tail into
// the board nor allocate once the buffer has grown.
func TestSyncPartialReusesBuffer(t *testing.T) {
	s, b := newSessionBoard(t)
	for col := 0; col < 24; col++ { // a wide ship: every column dirty
		s.SetLUT(3, col, 0, 0xBEEF)
	}
	if n, err := s.SyncPartial(b); err != nil || n < 24 {
		t.Fatalf("wide SyncPartial = %d frames, %v", n, err)
	}
	truth := uint16(0)
	allocs := testing.AllocsPerRun(50, func() {
		truth++
		s.SetLUT(9, 9, 1, truth)
		if n, err := s.SyncPartial(b); err != nil || n == 0 {
			t.Fatalf("narrow SyncPartial = %d frames, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state SyncPartial allocates %.0f times per ship, want 0", allocs)
	}
	if n, err := s.VerifyReadback(b); err != nil || n != 0 {
		t.Errorf("readback after reused-buffer ships: %d diffs, %v", n, err)
	}
}

func TestReadbackDetectsDivergence(t *testing.T) {
	s, b := newSessionBoard(t)
	if _, err := s.SyncFull(b); err != nil {
		t.Fatal(err)
	}
	// Host-side change not yet shipped: readback must show a diff.
	s.Set(5, 7, arch.S1YQ, arch.Out(1), true)
	n, err := s.VerifyReadback(b)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("divergence not detected")
	}
}

func TestBoardRejectsWrongGeometry(t *testing.T) {
	a := arch.NewVirtex()
	s, err := NewSession(a, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewBoard("small", a, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := s.Dev.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Configure(stream); err == nil {
		t.Error("wrong-geometry stream accepted")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(arch.NewVirtex(), 2, 2); err == nil {
		t.Error("tiny session accepted")
	}
	if _, err := NewBoard("x", arch.NewVirtex(), 2, 2); err == nil {
		t.Error("tiny board accepted")
	}
}
