//go:build !race

package store

// raceEnabled gates the allocation gates: the race detector's
// instrumentation allocates on paths that otherwise do not.
const raceEnabled = false
