package scenario

import (
	"fmt"
	"testing"
)

// BenchmarkMegaSwarm10k is the headline sharding benchmark: one 10⁴-
// device mixed-fleet mission, executed by 1, 2 and 8 workers over the
// same scenario-fixed cell decomposition. Results are byte-identical
// across the sub-benchmarks (the parity lane asserts it); only the
// wall-clock differs, and the shards=8/shards=1 ratio is the speedup
// the benchmark ledger tracks as sim.shard_speedup.
func BenchmarkMegaSwarm10k(b *testing.B) {
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunSwarm(SwarmConfig{
					Devices:   10000,
					Shards:    w,
					Seed:      7,
					DurationS: 2,
					FailProb:  0.001,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Steps == 0 {
					b.Fatal("empty run")
				}
			}
		})
	}
}
