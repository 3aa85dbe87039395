//go:build !race

package server

// raceEnabled: see race_on_test.go.
const raceEnabled = false
