package scheduler

import (
	"testing"

	"hivemind/internal/sim"
)

func TestShardedSerializesPerShard(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSharded(eng, 1, 0.001)
	var last sim.Time
	for i := 0; i < 100; i++ {
		s.Decide(uint64(i), func(l sim.Time) { last = l })
	}
	eng.Run()
	// 100 decisions × 1ms on one shard: the last waited ~99ms.
	if last < 0.09 {
		t.Fatalf("last decision latency %g, want ~0.099", last)
	}
}

func TestShardingScalesThroughput(t *testing.T) {
	run := func(shards int) sim.Time {
		eng := sim.NewEngine(1)
		s := NewSharded(eng, shards, 0.001)
		done := 0
		for i := 0; i < 1000; i++ {
			s.Decide(uint64(i), func(sim.Time) { done++ })
		}
		eng.Run()
		if done != 1000 {
			t.Fatalf("done = %d", done)
		}
		return eng.Now()
	}
	one, four := run(1), run(4)
	if four >= one/3 {
		t.Fatalf("4 shards (%.3gs) not ~4x faster than 1 (%.3gs)", four, one)
	}
}

func TestShardedInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSharded(sim.NewEngine(1), 0, 0.001)
}

// The §5.6 claim in miniature: at a decision rate that saturates one
// shard, adding shards restores low decision latency.
func TestCentralizedBottleneckRelievedBySharding(t *testing.T) {
	decisionLatency := func(shards int, ratePerS float64) sim.Time {
		eng := sim.NewEngine(3)
		s := NewSharded(eng, shards, 0.0002) // 5000 decisions/s/shard
		var worst sim.Time
		n := int(ratePerS * 2)
		for i := 0; i < n; i++ {
			at := float64(i) / ratePerS
			key := uint64(i)
			eng.At(at, func() {
				s.Decide(key, func(l sim.Time) {
					if l > worst {
						worst = l
					}
				})
			})
		}
		eng.Run()
		return worst
	}
	// 8000 decisions/s ≈ an 8k-drone swarm: one shard saturates.
	saturated := decisionLatency(1, 8000)
	sharded := decisionLatency(4, 8000)
	if sharded >= saturated/5 {
		t.Fatalf("sharding did not relieve bottleneck: %g vs %g", sharded, saturated)
	}
}
