//go:build !race

package sim

// raceEnabled gates the allocation gates: the race detector's
// instrumentation allocates on paths that otherwise do not.
const raceEnabled = false
