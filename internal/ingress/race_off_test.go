//go:build !race

package ingress

// raceEnabled gates the allocation gate: the race detector's
// instrumentation allocates on paths that otherwise do not.
const raceEnabled = false
