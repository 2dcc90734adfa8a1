package experiments

import (
	"runtime/debug"
	"testing"
)

// BenchmarkQuickSweep runs the entire quick-mode evaluation sweep —
// every figure and microbenchmark at reduced scale — exactly as
// `hivemind-bench -quick` does, including that binary's relaxed GC
// target (the sweep's live set is tiny next to its allocation churn).
// Its ns/op is the sweep's wall-clock cost; the benchmark ledger
// tracks the same sweep as experiments.sweep_s.
func BenchmarkQuickSweep(b *testing.B) {
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{Seed: 1, Quick: true}
		for _, r := range RunAll(cfg) {
			if r.Report == nil {
				b.Fatalf("%s returned a nil report", r.Experiment.ID)
			}
		}
	}
}
