//go:build race

package store

// raceEnabled gates the allocation gates; see race_off_test.go.
const raceEnabled = true
