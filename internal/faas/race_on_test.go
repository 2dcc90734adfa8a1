//go:build race

package faas

// raceEnabled gates the allocation pins; see race_off_test.go.
const raceEnabled = true
