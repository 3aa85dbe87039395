// noc-smoke: the CI gate for the dynamic NoC overlay. Builds the default
// 3x3 mesh, declares two crossing corner flows, runs a short seeded
// connectivity-preserving obstacle churn script, and after every event
// sim-verifies packet delivery on both flows (exact hop-count latency)
// with an oracle audit riding on each mutation. Finishes by clearing all
// remaining obstacles and demanding the board return to its pre-churn
// bytes. Any lost packet, audit violation, or residual byte diff fails CI.
package main

import (
	"bytes"
	"fmt"

	"repro/internal/noc"
	"repro/internal/workload"
)

func runNoCSmoke() error {
	h, err := noc.New(noc.DefaultConfig())
	if err != nil {
		return fmt.Errorf("building mesh: %w", err)
	}
	flows := make([]int, 0, 2)
	for _, f := range [][4]int{{0, 0, 2, 2}, {2, 0, 0, 2}} {
		id, err := h.AddFlow(f[0], f[1], f[2], f[3])
		if err != nil {
			return fmt.Errorf("flow %v: %w", f, err)
		}
		flows = append(flows, id)
	}
	baseline, err := h.Stream()
	if err != nil {
		return err
	}
	verify := func(when string) error {
		for _, id := range flows {
			if err := h.VerifyFlow(id); err != nil {
				return fmt.Errorf("%s: %w", when, err)
			}
		}
		return nil
	}
	if err := verify("before churn"); err != nil {
		return err
	}
	script := workload.New(1, h.Cfg.Rows, h.Cfg.Cols).NoCChurn(8)
	for _, op := range script {
		ev := noc.ChurnEvent{Place: op.Kind == workload.OpNoCObstacle,
			Row: op.Rect[0], Col: op.Rect[1], Height: op.Rect[2], Width: op.Rect[3]}
		if err := h.Apply(ev); err != nil {
			return fmt.Errorf("event %d (%s at %d,%d): %w", op.Serial, op.Kind, ev.Row, ev.Col, err)
		}
		if err := verify(fmt.Sprintf("after event %d (%s)", op.Serial, op.Kind)); err != nil {
			return err
		}
	}
	for _, rect := range h.Mesh.Obstacles() {
		if err := h.RemoveObstacle(rect.Row, rect.Col, rect.Height, rect.Width); err != nil {
			return fmt.Errorf("final clear at (%d,%d): %w", rect.Row, rect.Col, err)
		}
	}
	final, err := h.Stream()
	if err != nil {
		return err
	}
	if !bytes.Equal(baseline, final) {
		return fmt.Errorf("board not byte-restored after clearing all obstacles")
	}
	fmt.Printf("noc-smoke: %d churn events, %d flows delivered throughout, %d oracle audits, bytes restored\n",
		len(script), len(flows), h.Audits)
	return nil
}
