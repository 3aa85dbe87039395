package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jbits"
)

// TestBusyWorkerIsNotFailedOver: a probe tick is bounded by the fixed probe
// bound, not by the probe period, so a probe that waits behind a busy worker
// gets its answer instead of failing a healthy slot over. Slot 0's worker is
// held for 100 ms — five 20 ms periods — while the ticker probes; every
// probe, during the hold and after it, must pass.
func TestBusyWorkerIsNotFailedOver(t *testing.T) {
	c, err := New(Config{Boards: 2, Spares: 1, Rows: 16, Cols: 24, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() { _ = c.Shutdown(ctx) }()
	_, w, _, _, _ := c.slots[0].current()
	if err := w.Do(ctx, func(*core.Router, *jbits.Session) error {
		time.Sleep(100 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Two more rounds over both slots, on idle workers.
	for held := c.Stats().HealthProbes; c.Stats().HealthProbes < held+4; time.Sleep(5 * time.Millisecond) {
		if ctx.Err() != nil {
			t.Fatal("the probe loop stopped probing")
		}
	}
	if st := c.Stats(); st.Failovers != 0 || st.ProbeFails != 0 {
		t.Errorf("failovers=%d probe_fails=%d after a 100 ms busy worker, want 0/0", st.Failovers, st.ProbeFails)
	}
}
