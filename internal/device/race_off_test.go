//go:build !race

package device

// raceEnabled: see race_on_test.go.
const raceEnabled = false
