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
	return s
}

// Decide queues one scheduling decision for the task key on its shard
// ("each responsible for a subset of tasks") and calls done with the
// decision latency (queueing + service).
func (s *Sharded) Decide(key uint64, done func(latency sim.Time)) {
	shard := s.shards[key%uint64(len(s.shards))]
	start := s.eng.Now()
	shard.Use(s.decisionS, func() {
		if done != nil {
			done(s.eng.Now() - start)
		}
	})
}
