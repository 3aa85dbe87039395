//go:build race

package device

// raceEnabled reports whether the tests were built with the race detector,
// under which allocation counts are not the plain build's.
const raceEnabled = true
