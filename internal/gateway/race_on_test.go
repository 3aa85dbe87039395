//go:build race

package gateway_test

// raceEnabled reports whether the tests were built with the race detector,
// whose sync.Pool drops a quarter of what is put back: the allocation
// budget skips under it.
const raceEnabled = true
