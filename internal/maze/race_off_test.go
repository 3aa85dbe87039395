//go:build !race

package maze

// RaceEnabled: see race_on_test.go.
const RaceEnabled = false
