package netsim

import (
	"testing"

	"hivemind/internal/sim"
)

// BenchmarkMediumConcurrentFlows measures the fair-share fluid model
// under heavy flow churn (the 1000-drone regime).
func BenchmarkMediumConcurrentFlows(b *testing.B) {
	e := sim.NewEngine(1)
	m := NewMedium(e, 216.75e6, 50e6)
	for i := 0; i < b.N; i++ {
		at := float64(i%1000) * 0.001
		e.At(at, func() { m.Transfer(2e6, 0, 0, 0) })
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEdgeToCloudTransfer measures the full transfer path with
// protocol processing and breakdown accounting.
func BenchmarkEdgeToCloudTransfer(b *testing.B) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, DefaultConfig())
	for i := 0; i < b.N; i++ {
		at := float64(i) * 0.0005
		e.At(at, func() { n.EdgeToCloud(2e6, 0, 0, 0) })
	}
	b.ResetTimer()
	e.Run()
}
