// Package controller implements HiveMind's centralized controller
// (§4.2, §4.6): global visibility over cloud and edge resources, a load
// balancer that partitions work across devices, heartbeat-based failure
// detection (devices beat once per second; missing beats for more than
// 3 s marks a device failed), load repartitioning to neighbouring
// devices with sufficient battery (Fig. 10), a lightweight monitoring
// system, and hot-standby replicas of the controller process itself
// (§4.7: "two hot standby copies that can take over in case of a
// failure").
package controller

import (
	"fmt"

	"hivemind/internal/device"
	"hivemind/internal/geo"
	"hivemind/internal/metrics"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
)

// The controller's timings and thresholds (§4.6/§4.7).
const (
	// heartbeatTimeoutS: beats older than this mark the device failed.
	heartbeatTimeoutS float64 = 3
	// checkPeriodS is the failure detector's scan period.
	checkPeriodS float64 = 1
	// minBatteryFrac is the remaining-battery fraction a neighbour needs
	// to absorb repartitioned load ("assuming they have sufficient
	// battery").
	minBatteryFrac float64 = 0.15
	// standbys is the number of hot standby controller replicas.
	standbys int = 2
	// failoverS is the takeover delay when the active replica dies.
	failoverS float64 = 0.5
)

// Metric names shared by the simulated Controller and the live Replica,
// so Fig. 10-style failover experiments read the same counters on
// either substrate.
const (
	// EventDeviceFailure counts devices declared failed (stale heartbeats
	// or reported faults).
	EventDeviceFailure = "device-failure"
	// EventRouteUpdate counts route pushes to repartition gainers.
	EventRouteUpdate = "route-update"
	// EventHeartbeatMissed counts heartbeat timeouts the detector saw.
	EventHeartbeatMissed = "ctrl-heartbeat-missed"
	// EventElection counts leader elections won (a standby promotion on
	// the simulated substrate, a vote-majority win on the live one).
	EventElection = "ctrl-election"
	// EventFailover counts takeovers from a previously serving replica.
	EventFailover = "ctrl-failover"
	// EventOrphanRedispatch counts checkpointed in-flight tasks a newly
	// promoted primary re-dispatched.
	EventOrphanRedispatch = "ctrl-orphan-redispatch"
	// EventStepDown counts leaders demoting themselves — lost lease
	// quorum, a higher term observed, or a fenced write proving a newer
	// primary exists.
	EventStepDown = "ctrl-step-down"
	// SampleFailoverLatency records seconds of controller unavailability
	// per failover (old primary's last lease to new primary serving).
	SampleFailoverLatency = "ctrl-failover-latency"
)

// Controller coordinates a fleet.
type Controller struct {
	eng  *sim.Engine
	flt  device.Fleet
	regs []geo.Rect

	detector *sim.Ticker
	handled  map[int]bool // device id -> failure processed

	// Repartition notifications: gainers receive updated routes.
	onRepartition func(failed int, gainers []int)

	replicas  int
	downUntil sim.Time

	monitor *metrics.Registry
}

// New builds a controller over a fleet with its initial region
// assignment.
func New(eng *sim.Engine, fleet device.Fleet, regions []geo.Rect, onRepartition func(failed int, gainers []int)) *Controller {
	if len(fleet) != len(regions) {
		panic("controller: fleet/regions size mismatch")
	}
	c := &Controller{
		eng: eng, flt: fleet, regs: append([]geo.Rect(nil), regions...),
		handled:       make(map[int]bool),
		onRepartition: onRepartition,
		replicas:      1 + standbys,
		monitor:       metrics.NewRegistry(),
	}
	c.detector = eng.Every(checkPeriodS, 0.05, c.scan)
	return c
}

// Monitor returns the controller's metrics registry.
func (c *Controller) Monitor() *metrics.Registry { return c.monitor }

// Available reports whether a controller replica is serving (false only
// during a failover window).
func (c *Controller) Available() bool {
	return c.replicas > 0 && c.eng.Now() >= c.downUntil
}

// KillActiveReplica simulates a controller crash: a hot standby takes
// over after the failover delay. Returns false when no standby remains.
func (c *Controller) KillActiveReplica() bool {
	c.replicas--
	if c.replicas <= 0 {
		return false
	}
	c.downUntil = c.eng.Now() + failoverS
	c.monitor.CountEvent(EventElection)
	c.monitor.CountEvent(EventFailover)
	c.monitor.Observe(SampleFailoverLatency, failoverS)
	return true
}

// scan is the periodic heartbeat check.
func (c *Controller) scan() {
	if !c.Available() {
		return
	}
	now := c.eng.Now()
	for i, d := range c.flt {
		if c.handled[i] {
			continue
		}
		stale := now-d.LastHeartbeat() > heartbeatTimeoutS
		if stale {
			c.monitor.CountEvent(EventHeartbeatMissed)
		}
		if d.Failed() || stale {
			c.handleFailure(i)
		}
	}
}

// handleFailure repartitions the failed device's region among its
// alive, battery-sufficient neighbours and pushes them updated routes
// (Fig. 10).
func (c *Controller) handleFailure(failed int) {
	c.handled[failed] = true
	c.monitor.CountEvent(EventDeviceFailure)
	if !c.regs[failed].Valid() {
		return
	}
	alive := make([]bool, len(c.flt))
	for i, d := range c.flt {
		alive[i] = !d.Failed() && !c.handled[i] &&
			d.Battery.ConsumedFraction() < 1-minBatteryFrac
	}
	newRegs, gainers := geo.Repartition(c.regs, alive, failed)
	c.regs = newRegs
	for _, gi := range gainers {
		c.flt[gi].AssignRegion(newRegs[gi])
		c.monitor.CountEvent(EventRouteUpdate)
	}
	if c.onRepartition != nil {
		c.onRepartition(failed, gainers)
	}
}

// Stop halts the failure detector.
func (c *Controller) Stop() { c.detector.Stop() }

// NewMonitor returns metrics.NewRegistry(). The benchmark module still
// calls it; code in this module calls metrics.NewRegistry directly.
func NewMonitor() *metrics.Registry { return metrics.NewRegistry() }

// FailoverStats is a snapshot of the controller-replication metrics —
// the §4.7 hot-standby story made observable on both substrates.
type FailoverStats struct {
	Elections           int
	Failovers           int
	OrphansRedispatched int
	HeartbeatsMissed    int
	DeviceFailures      int
	RouteUpdates        int
	// FailoverLatency holds one observation per takeover, in seconds.
	FailoverLatency *stats.Sample
}

// Failover is the registry's view of the replication counters and the
// failover-latency sample.
func Failover(reg *metrics.Registry) FailoverStats {
	count := func(name string) int { return int(reg.Counter(name)) }
	return FailoverStats{
		Elections:           count(EventElection),
		Failovers:           count(EventFailover),
		OrphansRedispatched: count(EventOrphanRedispatch),
		HeartbeatsMissed:    count(EventHeartbeatMissed),
		DeviceFailures:      count(EventDeviceFailure),
		RouteUpdates:        count(EventRouteUpdate),
		FailoverLatency:     reg.Histogram(SampleFailoverLatency),
	}
}

// String summarises the failover metrics in one line.
func (f FailoverStats) String() string {
	lat := "n/a"
	if f.FailoverLatency != nil && f.FailoverLatency.N() > 0 {
		lat = fmt.Sprintf("%.0fms mean", f.FailoverLatency.Mean()*1e3)
	}
	return fmt.Sprintf("elections=%d failovers=%d (latency %s) orphans-redispatched=%d heartbeats-missed=%d device-failures=%d route-updates=%d",
		f.Elections, f.Failovers, lat, f.OrphansRedispatched, f.HeartbeatsMissed, f.DeviceFailures, f.RouteUpdates)
}
