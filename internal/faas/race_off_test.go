//go:build !race

package faas

// raceEnabled gates the allocation pins: the race detector allocates
// on its own.
const raceEnabled = false
