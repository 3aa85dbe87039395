//go:build race

package core

// raceEnabled reports whether the tests were built with the race detector,
// whose sync.Pool drops a quarter of what is put back: the allocation
// budgets skip under it.
const raceEnabled = true
