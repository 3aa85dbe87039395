package server_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestLoopRecoversAndStops: a step that panics is recovered and counted,
// and the next step runs; Stop cancels the step in flight, returns only
// once that step has, and no step starts after it.
func TestLoopRecoversAndStops(t *testing.T) {
	var steps, panics atomic.Int32
	inFlight, returned := make(chan struct{}), make(chan struct{})
	l := server.StartLoop(time.Millisecond, func(ctx context.Context) bool {
		switch steps.Add(1) {
		case 1:
			panic("first step")
		case 2:
			close(inFlight)
			<-ctx.Done() // only Stop ends this step
			time.Sleep(10 * time.Millisecond)
			close(returned)
		}
		return true
	}, func() { panics.Add(1) })
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("no step ran after the one that panicked")
	}
	if n := panics.Load(); n != 1 {
		t.Fatalf("%d panics counted, want 1", n)
	}
	l.Stop()
	select {
	case <-returned:
	default:
		t.Fatal("Stop returned before the step in flight did")
	}
	time.Sleep(20 * time.Millisecond) // twenty ticks
	if n := steps.Load(); n != 2 {
		t.Errorf("%d steps ran, want 2: a step started after Stop", n)
	}
	l.Stop() // a second Stop is harmless
}

// TestLoopEndsWhenStepSaysSo: a step that reports false ends the loop, as
// the accept loop's does once its listener is closed, though steps with no
// period run back to back.
func TestLoopEndsWhenStepSaysSo(t *testing.T) {
	var steps atomic.Int32
	l := server.StartLoop(0, func(context.Context) bool { steps.Add(1); return false }, func() {})
	defer l.Stop()
	time.Sleep(20 * time.Millisecond)
	if n := steps.Load(); n != 1 {
		t.Errorf("%d steps ran, want 1", n)
	}
}
