package scheduler

import (
	"testing"

	"hivemind/internal/sim"
)

// decider returns a Decide that calls done with the decision latency,
// read off the clock.
func decider(eng *sim.Engine, s *Sharded) func(key uint64, done func(sim.Time)) {
	var dones []func()
	kind := eng.Handle(func(a, _ int32) { dones[a]() })
	return func(key uint64, done func(sim.Time)) {
		start := eng.Now()
		dones = append(dones, func() { done(eng.Now() - start) })
		s.Decide(key, kind, int32(len(dones)-1))
	}
}

func TestShardedSerializesPerShard(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSharded(eng, 1, 0.001)
	decide := decider(eng, s)
	var last sim.Time
	for i := 0; i < 100; i++ {
		decide(uint64(i), func(l sim.Time) { last = l })
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
		decide := decider(eng, s)
		done := 0
		for i := 0; i < 1000; i++ {
			decide(uint64(i), func(sim.Time) { done++ })
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
		decide := decider(eng, s)
		var worst sim.Time
		n := int(ratePerS * 2)
		for i := 0; i < n; i++ {
			at := float64(i) / ratePerS
			key := uint64(i)
			eng.At(at, func() {
				decide(key, func(l sim.Time) {
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
