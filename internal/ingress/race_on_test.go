//go:build race

package ingress

// raceEnabled gates the allocation gate; see race_off_test.go.
const raceEnabled = true
