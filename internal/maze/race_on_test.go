//go:build race

package maze

// RaceEnabled reports whether the tests were built with the race detector.
// The 64×96 reference comparisons skip under it: its sync.Pool drops a
// quarter of what is put back, so the large search arenas are rebuilt and
// the package takes ten times as long to say what the small arrays and the
// plain run already say.
const RaceEnabled = true
