//go:build race

package server

// raceEnabled reports whether the tests were built with the race detector,
// which allocates on its own account: allocation budgets skip under it.
const raceEnabled = true
