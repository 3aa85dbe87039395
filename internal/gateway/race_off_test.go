//go:build !race

package gateway_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
