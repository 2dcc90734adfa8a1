package scenario

import "testing"

// BenchmarkMegaSwarm10k is the headline sharding benchmark: one 10⁴-
// device mixed-fleet mission, executed by 1, 2 and 8 workers over the
// same scenario-fixed cell decomposition. Results are byte-identical
// across the sub-benchmarks (the parity lane asserts it); only the
// wall-clock differs, and the shards=8/shards=1 ratio is the speedup
// the benchmark ledger tracks as sim.shard_speedup. devices=100000
// runs a 10⁵-device mission at Shards 2, the scale check.
func BenchmarkMegaSwarm10k(b *testing.B) {
	for _, bc := range []struct {
		name    string
		devices int
		shards  int
	}{
		{"shards=1", 10000, 1}, {"shards=2", 10000, 2}, {"shards=8", 10000, 8},
		{"devices=100000", 100000, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunSwarm(SwarmConfig{
					Devices:   bc.devices,
					Shards:    bc.shards,
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
