// Package noc drives a cores.NoC overlay with the gate-level simulator:
// it builds the mesh, injects packets and proves they traverse the routed
// fabric hop by hop, churns obstacles, and audits the board against the
// bitstream oracle after every step. The traversal and churn tests share
// this harness.
package noc

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sizes the board and the mesh.
type Config struct {
	Rows, Cols         int // board tiles
	MeshRows, MeshCols int // mesh nodes
	BaseRow, BaseCol   int // south-west node tile
	Pitch              int // tiles between adjacent nodes
}

// DefaultConfig is the fixed fuzz mesh of workload's NoC* constants (3x3,
// pitch 3, node columns 8/11/14 — clear of the BRAM columns, 6 and 18) on
// the 16x24 test board.
func DefaultConfig() Config {
	return Config{Rows: 16, Cols: 24, MeshRows: workload.NoCMeshRows, MeshCols: workload.NoCMeshCols,
		BaseRow: workload.NoCBaseRow, BaseCol: workload.NoCBaseCol, Pitch: workload.NoCPitch}
}

// Harness owns one board, its router, the mesh overlay, and a simulator.
type Harness struct {
	Cfg    Config
	Dev    *device.Device
	R      *core.Router
	Mesh   *cores.NoC
	Sim    *sim.Simulator
	Audits int // oracle audits passed so far
}

// New builds the mesh on a fresh board, its router configured by opts, and
// audits the result.
func New(cfg Config, opts ...core.Option) (*Harness, error) {
	dev, err := device.New(arch.NewVirtex(), cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	return NewOn(cfg, core.New(dev, opts...))
}

// NewOn builds the mesh with a router that may already have routed (and
// learned) before, on its cfg-sized board, and audits the result.
func NewOn(cfg Config, r *core.Router) (*Harness, error) {
	mesh, err := cores.NewNoC(r, "noc", cfg.MeshRows, cfg.MeshCols, cfg.BaseRow, cfg.BaseCol, cfg.Pitch, 0)
	if err != nil {
		return nil, err
	}
	if err := mesh.Build(); err != nil {
		return nil, err
	}
	h := &Harness{Cfg: cfg, Dev: r.Dev, R: r, Mesh: mesh, Sim: sim.New(r.Dev)}
	if err := h.Audit(); err != nil {
		return nil, err
	}
	return h, nil
}

// Audit checks the board against the independent bitstream oracle and the
// router's live claims (core.Router.VerifyOracle).
func (h *Harness) Audit() error {
	if err := h.R.VerifyOracle(); err != nil {
		return fmt.Errorf("noc: oracle audit: %w", err)
	}
	h.Audits++
	return nil
}

// Stream returns the board's full configuration bytes, for byte-identity
// comparisons across configs and across churn cycles.
func (h *Harness) Stream() ([]byte, error) { return h.Dev.FullConfig() }

// AddFlow declares a packet flow between mesh nodes and audits.
func (h *Harness) AddFlow(si, sj, di, dj int) (int, error) {
	id, err := h.Mesh.AddFlow(si, sj, di, dj)
	if err != nil {
		return 0, err
	}
	return id, h.Audit()
}

// PlaceObstacle places an obstacle rectangle (rip-up and detour), then
// audits.
func (h *Harness) PlaceObstacle(row, col, height, width int) error {
	if err := h.Mesh.PlaceObstacle(row, col, height, width); err != nil {
		return err
	}
	return h.Audit()
}

// RemoveObstacle removes an obstacle rectangle (replay restore), then
// audits.
func (h *Harness) RemoveObstacle(row, col, height, width int) error {
	if err := h.Mesh.RemoveObstacle(row, col, height, width); err != nil {
		return err
	}
	return h.Audit()
}

// SendPacket injects one single-cycle packet on the flow and steps the
// simulator until it reaches the destination, returning the hop latency
// in cycles. The simulator is refreshed first, so each packet observes
// the current configuration; an error means the packet never arrived.
func (h *Harness) SendPacket(id int) (int, error) {
	if !h.Mesh.FlowActive(id) {
		return 0, fmt.Errorf("noc: flow %d is inactive", id)
	}
	path, err := h.Mesh.FlowPath(id)
	if err != nil {
		return 0, err
	}
	hops := len(path) - 1
	inj, err := h.Mesh.InjectPin(id)
	if err != nil {
		return 0, err
	}
	arr, err := h.Mesh.ArrivalPin(id)
	if err != nil {
		return 0, err
	}
	h.Sim.Refresh()
	if err := h.Sim.Force(inj.Row, inj.Col, inj.W, true); err != nil {
		return 0, err
	}
	if err := h.Sim.Step(); err != nil {
		return 0, err
	}
	if err := h.Sim.Force(inj.Row, inj.Col, inj.W, false); err != nil {
		return 0, err
	}
	for cycle := 1; cycle <= hops+2; cycle++ {
		if cycle > 1 {
			if err := h.Sim.Step(); err != nil {
				return 0, err
			}
		}
		v, err := h.Sim.Value(arr.Row, arr.Col, arr.W)
		if err != nil {
			return 0, err
		}
		if v {
			return cycle, nil
		}
	}
	return 0, fmt.Errorf("noc: flow %d: packet lost (no arrival within %d cycles)", id, hops+2)
}

// VerifyFlow sends one packet and checks it arrives in exactly as many
// cycles as the flow has hops — one registered hop per cycle.
func (h *Harness) VerifyFlow(id int) error {
	path, err := h.Mesh.FlowPath(id)
	if err != nil {
		return err
	}
	lat, err := h.SendPacket(id)
	if err != nil {
		return err
	}
	if want := len(path) - 1; lat != want {
		return fmt.Errorf("noc: flow %d: latency %d cycles, want %d (path %v)", id, lat, want, path)
	}
	return nil
}

// ChurnEvent is one obstacle mutation in a scripted churn sequence.
type ChurnEvent struct {
	Place                   bool
	Row, Col, Height, Width int
}

// Apply runs one event.
func (h *Harness) Apply(e ChurnEvent) error {
	if e.Place {
		return h.PlaceObstacle(e.Row, e.Col, e.Height, e.Width)
	}
	return h.RemoveObstacle(e.Row, e.Col, e.Height, e.Width)
}
