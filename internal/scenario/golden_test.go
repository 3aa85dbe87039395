package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/oracle"
)

var update = flag.Bool("update", false, "rewrite golden bitstreams")

// TestGoldenBitstreams pins every scenario's committed configuration
// stream against a checked-in golden file, across the full config Grid.
// (Partitioned against whole-device negotiation is not a row of it: the
// maze tests hold that comparison.) A diff means the router now emits different frames for the paper's
// worked examples — if that is intended (an algorithm change), regenerate
// with `go test ./internal/scenario -run Golden -update` and review the
// PIP-level diff the failure printed.
func TestGoldenBitstreams(t *testing.T) {
	a := arch.NewVirtex()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			golden := filepath.Join("testdata", s.Name+".bin")
			var ref []byte
			for _, cfg := range Grid {
				stream, claims, err := s.Run(cfg.Opts...)
				if err != nil {
					t.Fatalf("%s under %s: %v", s.Name, cfg.Name, err)
				}
				// Every configuration's board must be oracle-clean,
				// every net on it claimed.
				if err := oracle.Audit(a, stream, claims, true); err != nil {
					t.Fatalf("%s under %s not oracle-clean: %v", s.Name, cfg.Name, err)
				}
				if ref == nil {
					ref = stream
					continue
				}
				if !bytes.Equal(ref, stream) {
					diff, derr := oracle.DiffStreams(a, ref, stream)
					if derr != nil {
						t.Fatalf("%s: configs diverge and diff failed: %v", s.Name, derr)
					}
					t.Fatalf("%s: %s emits different frames than %s (%d PIPs differ): %v",
						s.Name, cfg.Name, Grid[0].Name, len(diff), diff)
				}
			}
			if *update {
				if err := os.WriteFile(golden, ref, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", golden, len(ref))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, ref) {
				diff, derr := oracle.DiffStreams(a, want, ref)
				if derr != nil {
					t.Fatalf("%s: stream differs from golden and diff failed: %v", s.Name, derr)
				}
				t.Fatalf("%s: stream differs from golden by %d PIPs: %v", s.Name, len(diff), diff)
			}
		})
	}
}
