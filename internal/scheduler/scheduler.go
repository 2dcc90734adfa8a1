// Package scheduler implements the scalability mechanism of the
// serverless cloud scheduler (§4.3, §5.6): a sharded decision engine —
// "multiple schedulers, each responsible for a subset of tasks, but
// with global visibility into all cloud and edge resources" (a
// shared-state design in the Omega tradition).
package scheduler

import "hivemind/internal/sim"

// Sharded is the scalable decision engine: each shard serialises its
// own decisions (a single controller thread), so one shard saturates at
// 1/DecisionS decisions per second; HiveMind adds shards when the
// centralized scheduler becomes the bottleneck (§5.6).
type Sharded struct {
	eng       *sim.Engine
	shards    []*sim.Resource
	decisionS float64
	// Record kinds of one decision, a = the caller's a and b = shard<<8 |
	// the caller's kind: the shard is granted, the decision is made.
	granted, decided uint8
}

// NewSharded builds a decision engine with n shards, each taking
// decisionS seconds per scheduling decision.
func NewSharded(eng *sim.Engine, n int, decisionS float64) *Sharded {
	if n <= 0 || decisionS <= 0 {
		panic("scheduler: invalid shard config")
	}
	s := &Sharded{eng: eng, decisionS: decisionS}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, sim.NewResource(eng, 1))
	}
	s.granted = eng.Handle(func(a, b int32) { eng.PostIn(decisionS, s.decided, a, b) })
	s.decided = eng.Handle(func(a, b int32) {
		s.shards[b>>8].Release()
		eng.Fire(uint8(b), a, 0)
	})
	return s
}

// Decide queues one scheduling decision for the task key on its shard
// ("each responsible for a subset of tasks") and runs record (kind, a,
// 0) inline once it is made; the caller reads the decision latency
// (queueing + service) off the clock.
func (s *Sharded) Decide(key uint64, kind uint8, a int32) {
	shard := int32(key % uint64(len(s.shards)))
	s.shards[shard].Grab(s.granted, a, shard<<8|int32(kind))
}
