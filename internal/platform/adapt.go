package platform

import (
	"hivemind/internal/apps"
	"hivemind/internal/device"
	"hivemind/internal/stats"
)

// Adapter implements HiveMind's runtime re-mapping (§4.2): "At runtime,
// HiveMind can change its task mapping if the user-provided goals are
// not met. Changes to task placement currently only happen at task
// granularity." It watches a job's recent latencies against the user's
// goal and walks the placement ladder — cloud → hybrid → edge when the
// cloud path misses the goal (congestion, backend overload), and back
// toward the cloud when the on-board path is the violator.
type Adapter struct {
	sys     *System
	profile apps.Profile
	goalS   float64

	current   TierPlacement
	window    *stats.Sample
	minWindow int
}

// NewAdapter starts adaptive placement for one application with a p95
// latency goal. The initial placement is the system's static decision.
func NewAdapter(sys *System, p apps.Profile, goalS float64) *Adapter {
	return &Adapter{
		sys: sys, profile: p, goalS: goalS,
		current:   sys.PlaceFor(p),
		window:    &stats.Sample{},
		minWindow: 20,
	}
}

// Submit runs one task under the adapter's current placement and feeds
// the observation back into the adaptation loop.
func (a *Adapter) Submit(dev *device.Device, done func(TaskMetrics)) {
	forced := a.current
	a.sys.SubmitTask(a.profile, dev, SubmitOpts{ForcePlacement: &forced}, func(m TaskMetrics) {
		if !m.Dropped {
			a.observe(m)
		} else {
			// Drops are goal violations too: an overloaded edge placement
			// sheds tasks, which must push the adapter off the edge.
			a.window.Add(a.goalS * 2)
			a.maybeAdapt()
		}
		if done != nil {
			done(m)
		}
	})
}

func (a *Adapter) observe(m TaskMetrics) {
	a.window.Add(m.TotalS())
	a.maybeAdapt()
}

func (a *Adapter) maybeAdapt() {
	if a.goalS <= 0 || a.window.N() < a.minWindow {
		return
	}
	p95 := a.window.Percentile(95)
	var next TierPlacement
	switch {
	case p95 <= a.goalS:
		return // goal met
	case a.current == TierCloud:
		next = TierHybrid // shed network pressure
	case a.current == TierHybrid:
		// Hybrid missing the goal: heavy on-board work would be worse;
		// only go to the edge if the device can actually absorb it.
		if a.profile.EdgeUtilization() < 0.8 && a.profile.EdgeExecS < a.goalS {
			next = TierEdge
		} else {
			return // no better mapping exists at task granularity
		}
	case a.current == TierEdge:
		next = TierHybrid // on-board path is the violator: offload again
	default:
		return
	}
	a.current = next
	a.window = &stats.Sample{} // fresh observation window after a switch
}
