package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestLearnFilePinned pins the library file `jrouted -learn` writes at
// 16×24 (seed 1) byte for byte: the campaign and the file format are
// deterministic, and a daemon's -library depends on both. A change that is
// meant to move the learned templates or the format re-pins this digest.
func TestLearnFilePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.jrtl")
	if err := runLearn(path, 1, 16, 24); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "3a40568344593cdcf6aa4cde892bb88ba0ebc7de7831a37fe02920a3734cbab2"
	if got := hex.EncodeToString(sum[:]); got != want || len(b) != 1710 {
		t.Errorf("library file: %d bytes, sha256 %s; pinned 1710 bytes, %s", len(b), got, want)
	}
}
