//go:build !race

package cores

// raceEnabled: see race_on_test.go.
const raceEnabled = false
