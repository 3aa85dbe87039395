// Package jbits is the low-level manual interface JRoute is built on: the
// equivalent of the JBits class library [1] plus its XHWIF hardware
// interface. It exposes get/set access to individual configuration
// resources, full and partial bitstream generation, and a Board abstraction
// — a configuration target with its own device state that only changes when
// a configuration stream is shipped to it.
//
// Separating the host-side design (the Device being edited by JRoute) from
// the Board makes run-time reconfiguration measurable: experiment B5 counts
// the frames a core swap ships compared to a full reconfiguration, and
// readback verification checks that the board converged to the design.
package jbits

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/device"
)

// Session is a JBits editing session over a host-side device image.
type Session struct {
	Dev *device.Device
	// partial is the reused buffer SyncPartial serializes into; no link
	// keeps a reference to it.
	partial []byte
}

// NewSession creates a session with a fresh device image.
func NewSession(a *arch.Arch, rows, cols int) (*Session, error) {
	d, err := device.New(a, rows, cols)
	if err != nil {
		return nil, err
	}
	return &Session{Dev: d}, nil
}

// Set turns a PIP on or off — the JBits-style bit poke underneath the
// router's route(row, col, from, to).
func (s *Session) Set(row, col int, from, to arch.Wire, on bool) error {
	if on {
		return s.Dev.SetPIP(row, col, from, to)
	}
	return s.Dev.ClearPIP(row, col, from, to)
}

// Get reports whether exactly this PIP is on.
func (s *Session) Get(row, col int, from, to arch.Wire) bool {
	return s.Dev.PIPIsOn(row, col, from, to)
}

// SetLUT writes a LUT truth table.
func (s *Session) SetLUT(row, col, lut int, truth uint16) error {
	return s.Dev.SetLUT(row, col, lut, truth)
}

// GetLUT reads a LUT truth table and whether the LUT is configured.
func (s *Session) GetLUT(row, col, lut int) (uint16, bool) {
	return s.Dev.GetLUT(row, col, lut)
}

// Board is the configuration target: a device whose state changes only via
// Configure, as real hardware does through its configuration port.
//
// A Board may be shared by several XHWIF connections (Serve loops) at once;
// the mutex serializes configuration-port access. The counter fields must be
// read via Counters when any Serve loop may still be running.
type Board struct {
	Name string
	mu   sync.Mutex
	dev  *device.Device
	// stale marks that configurations landed since the interpreted routing
	// and logic state was last rebuilt. The configuration port only latches
	// frames — as on real hardware — so interpretation is deferred until
	// someone inspects the device.
	stale bool

	// Statistics of the configuration traffic this board has seen.
	Configurations int // total Configure + ConfigurePartial calls
	FullConfigs    int // full configuration streams (opConfigure)
	PartialConfigs int // partial dirty-frame streams (opPartial)
	FramesWritten  int
	BytesWritten   int
}

// BoardCounters is a consistent snapshot of a board's traffic statistics.
type BoardCounters struct {
	Configurations int
	FullConfigs    int
	PartialConfigs int
	FramesWritten  int
	BytesWritten   int
}

// Counters returns a consistent snapshot of the board's statistics.
func (b *Board) Counters() BoardCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BoardCounters{
		Configurations: b.Configurations,
		FullConfigs:    b.FullConfigs,
		PartialConfigs: b.PartialConfigs,
		FramesWritten:  b.FramesWritten,
		BytesWritten:   b.BytesWritten,
	}
}

// NewBoard creates a blank board of the given geometry.
func NewBoard(name string, a *arch.Arch, rows, cols int) (*Board, error) {
	d, err := device.New(a, rows, cols)
	if err != nil {
		return nil, err
	}
	return &Board{Name: name, dev: d}, nil
}

// Configure ships a full configuration stream to the board.
func (b *Board) Configure(stream []byte) error {
	return b.configure(stream, false)
}

// ConfigurePartial ships a partial dirty-frame stream to the board. The
// stream format is identical to a full stream; the split exists so the
// board (and the XHWIF wire, via opPartial) can account full and partial
// reconfigurations separately.
func (b *Board) ConfigurePartial(stream []byte) error {
	return b.configure(stream, true)
}

func (b *Board) configure(stream []byte, partial bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Latch the frames without reinterpreting the fabric: the port is a
	// dumb frame sink, so a partial reconfiguration costs O(frames), not
	// O(device). Format and CRC errors still reject the stream here;
	// semantic corruption (illegal PIPs, contention) surfaces at
	// inspection or through the bitstream oracle, exactly as on hardware.
	frames, err := b.dev.ApplyFramesRaw(stream)
	if err != nil {
		return fmt.Errorf("jbits: board %s rejected configuration: %w", b.Name, err)
	}
	b.stale = true
	b.Configurations++
	if partial {
		b.PartialConfigs++
	} else {
		b.FullConfigs++
	}
	b.FramesWritten += frames
	b.BytesWritten += len(stream)
	return nil
}

// Readback serializes the board's full configuration under the board lock —
// the configuration-port read direction, safe against concurrent Configure
// calls from other connections.
func (b *Board) Readback() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dev.FullConfig()
}

// Device exposes the board-side device for readback-style inspection
// (BoardScope reads board state, not host state), rebuilding the
// interpreted routing and logic state first if configurations landed since
// the last inspection. A rebuild failure (bits encoding illegal state)
// leaves the board marked stale so the next inspection retries; the raw
// bits remain authoritative either way. Callers must not use the returned
// device while a Serve loop may be configuring the board concurrently.
func (b *Board) Device() *device.Device {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stale {
		if err := b.dev.RebuildFromBits(); err == nil {
			b.stale = false
		}
	}
	return b.dev
}

// Link is a board's configuration port as a session ships to it: a local
// *Board, or a *RemoteBoard across the XHWIF wire, which tags a partial
// stream opPartial.
type Link interface {
	Configure(stream []byte) error
	ConfigurePartial(stream []byte) error
}

// SyncFull ships the session's complete configuration to the board.
func (s *Session) SyncFull(b Link) (frames int, err error) {
	stream, err := s.Dev.FullConfig()
	if err != nil {
		return 0, err
	}
	if err := b.Configure(stream); err != nil {
		return 0, err
	}
	frames = s.Dev.FrameCount()
	s.Dev.ClearDirty()
	return frames, nil
}

// SyncPartial ships only the frames dirtied since the last sync — the
// partial reconfiguration step that makes RTR cheap, serialized once into
// the session's buffer. It returns the number of frames shipped.
func (s *Session) SyncPartial(b Link) (frames int, err error) {
	frames = s.Dev.DirtyFrameCount()
	if s.partial, err = s.Dev.AppendPartialConfig(s.partial[:0]); err != nil {
		return 0, err
	}
	if err := b.ConfigurePartial(s.partial); err != nil {
		return 0, err
	}
	s.Dev.ClearDirty()
	return frames, nil
}

// VerifyReadback reads the board's configuration back frame by frame and
// compares it with the session image, returning the number of differing
// frames (0 means the board matches the design).
func (s *Session) VerifyReadback(b *Board) (int, error) {
	diff, err := s.Dev.DiffFrames(b.dev)
	if err != nil {
		return 0, err
	}
	return len(diff), nil
}
