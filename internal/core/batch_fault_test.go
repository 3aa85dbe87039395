package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

// TestRouteBatchCommitRollback: a SetPIP failure in the middle of a batch
// commit must roll back everything the call did — the PIPs already
// applied AND the Connection records already created for earlier nets.
// Before the record-at-commit restructuring, records were only created
// after the full commit loop; now that each net records as it lands, the
// error path is audited here with an injected mid-commit fault.
func TestRouteBatchCommitRollback(t *testing.T) {
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	r := New(d, WithParallelism(1))

	// A pre-existing connection that must survive the rollback untouched.
	preSrc := NewPin(12, 2, arch.S0X)
	preSink := NewPin(14, 4, arch.S0F1)
	if err := r.RouteNet(preSrc, preSink); err != nil {
		t.Fatal(err)
	}
	preConns := r.ConnectionCount()
	prePIPs := d.OnPIPCount()
	preCfg, err := d.FullConfig()
	if err != nil {
		t.Fatal(err)
	}

	nets := []BatchNet{
		{Source: NewPin(2, 2, arch.S0X), Sinks: []EndPoint{NewPin(4, 5, arch.S0F1)}},
		{Source: NewPin(6, 8, arch.S0X), Sinks: []EndPoint{NewPin(8, 11, arch.S0F1)}},
		{Source: NewPin(3, 14, arch.S0X), Sinks: []EndPoint{NewPin(5, 17, arch.S0F1)}},
	}

	// Fail on the second PIP of the last net: by then the first two nets
	// have committed fully and recorded their connections, and the last
	// net is mid-commit.
	faultErr := errors.New("injected commit fault")
	r.batchCommitFault = func(net, pip int) error {
		if net == 2 && pip == 1 {
			return faultErr
		}
		return nil
	}
	err = r.RouteBatch(nets)
	r.batchCommitFault = nil
	if !errors.Is(err, faultErr) {
		t.Fatalf("RouteBatch error = %v, want injected fault", err)
	}

	if got := r.ConnectionCount(); got != preConns {
		t.Errorf("connection records not rolled back: %d, want %d", got, preConns)
	}
	if got := d.OnPIPCount(); got != prePIPs {
		t.Errorf("device PIPs not rolled back: %d, want %d", got, prePIPs)
	}
	cfg, err := d.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	if string(cfg) != string(preCfg) {
		t.Error("bitstream changed by failed batch")
	}
	if err := d.CheckConsistency(); err != nil {
		t.Errorf("device inconsistent after rollback: %v", err)
	}

	// The router must be fully usable afterwards: the same batch commits
	// cleanly once the fault is gone.
	if err := r.RouteBatch(nets); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
	if got := r.ConnectionCount(); got != preConns+len(nets) {
		t.Errorf("retry recorded %d connections, want %d", got-preConns, len(nets))
	}
}

// TestRouteBatchCommitRollbackFirstPIP: fault on the very first PIP —
// nothing may land, and no record may be created.
func TestRouteBatchCommitRollbackFirstPIP(t *testing.T) {
	d, err := device.New(arch.NewVirtex(), 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	r := New(d, WithParallelism(1))
	faultErr := errors.New("boom")
	r.batchCommitFault = func(net, pip int) error {
		if net == 0 && pip == 0 {
			return faultErr
		}
		return nil
	}
	nets := []BatchNet{{Source: NewPin(2, 2, arch.S0X), Sinks: []EndPoint{NewPin(4, 5, arch.S0F1)}}}
	if err := r.RouteBatch(nets); !errors.Is(err, faultErr) {
		t.Fatalf("err = %v", err)
	}
	if r.ConnectionCount() != 0 || d.OnPIPCount() != 0 {
		t.Errorf("state leaked: %d conns, %d pips", r.ConnectionCount(), d.OnPIPCount())
	}
}
