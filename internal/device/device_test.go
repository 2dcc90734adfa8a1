package device

import (
	"math"
	"testing"

	"hivemind/internal/energy"
	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// newDevice initialises one device with heartbeat and task kinds of its
// own.
func newDevice(e *sim.Engine, id int, cfg Config, onFailed func(*Device)) *Device {
	d := new(Device)
	d.Init(e, id, cfg, onFailed, e.Handle(func(int32, int32) { d.Beat() }))
	d.taskKind = e.Handle(func(int32, int32) { d.finish() })
	return d
}

// runTask runs a task on d and passes its outcome to done.
func runTask(d *Device, execS float64, done func(TaskOutcome)) {
	d.RunTask(execS, d.eng.Handle(func(int32, int32) { done(d.Outcome()) }), 0, 0)
}

// consumedJ is the energy d has drained from a battery of profile p.
func consumedJ(d *Device, p energy.PowerProfile) float64 {
	return d.Battery.ConsumedFraction() * p.CapacityJ
}

func TestDeviceBasics(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DroneConfig()
	d := newDevice(e, 3, cfg, nil)
	if d.Failed() || d.ID != 3 {
		t.Fatalf("fresh device state wrong: %s", d)
	}
	if rate := cfg.FrameMB * cfg.FPS; rate != 16 { // 8 fps × 2 MB
		t.Fatalf("sensor rate = %g", rate)
	}
	if d.kind.String() != "drone" {
		t.Fatalf("kind = %s", d.kind)
	}
	if RoverConfig().Kind.String() != "rover" {
		t.Fatal("rover kind string")
	}
}

func TestRunTaskAccountsComputeEnergy(t *testing.T) {
	e := sim.NewEngine(1)
	p := DroneConfig().Power
	d := newDevice(e, 0, DroneConfig(), nil)
	var out TaskOutcome
	runTask(d, 10, func(o TaskOutcome) { out = o })
	e.RunUntil(20)
	d.Settle()
	if out.Dropped || out.ExecS != 10 {
		t.Fatalf("outcome = %+v", out)
	}
	// 10s busy at 30W plus idle-CPU for the rest, over the base and
	// radio draw of a device that neither moves nor hovers.
	want := 10*p.ComputeBusyW + 10*p.ComputeIdleW + 20*(p.BaseW+p.RadioW)
	if got := consumedJ(d, p); math.Abs(got-want) > 1 {
		t.Fatalf("energy = %g, want ~%g", got, want)
	}
}

func TestRunTaskQueuesAndDrops(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DroneConfig()
	cfg.QueueLimit = 2
	d := newDevice(e, 0, cfg, nil)
	outcomes := make([]TaskOutcome, 0, 4)
	for i := 0; i < 4; i++ {
		runTask(d, 5, func(o TaskOutcome) { outcomes = append(outcomes, o) })
	}
	e.RunUntil(30)
	if len(outcomes) != 4 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	dropped := 0
	for _, o := range outcomes {
		if o.Dropped {
			dropped++
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	// Second accepted task queued behind the first.
	var queued bool
	for _, o := range outcomes {
		if !o.Dropped && o.QueueS > 0 {
			queued = true
		}
	}
	if !queued {
		t.Fatal("no task reported queueing delay")
	}
}

func TestBatteryDepletionFailsDevice(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DroneConfig()
	cfg.Power.CapacityJ = 200 // tiny battery
	failed := false
	d := newDevice(e, 0, cfg, func(*Device) { failed = true })
	d.SetMoving(true) // 50W: dies in ~4s (plus base draw)
	e.RunUntil(60)
	if !failed || !d.Failed() {
		t.Fatal("device did not fail on battery depletion")
	}
	// Death must occur near the 200J/58W ≈ 3.5s mark, detected by the
	// periodic integrator within ~1s.
	if got := consumedJ(d, cfg.Power); got != 200 {
		t.Fatalf("consumed %g J", got)
	}
}

func TestInjectedFailureFiresOnce(t *testing.T) {
	e := sim.NewEngine(1)
	count := 0
	d := newDevice(e, 0, DroneConfig(), func(*Device) { count++ })
	d.Fail()
	d.Fail()
	if count != 1 {
		t.Fatalf("onFailed fired %d times", count)
	}
	var out TaskOutcome
	runTask(d, 1, func(o TaskOutcome) { out = o })
	if !out.Dropped {
		t.Fatal("failed device accepted a task")
	}
}

func TestHeartbeatStopsOnFailure(t *testing.T) {
	e := sim.NewEngine(1)
	d := newDevice(e, 0, DroneConfig(), nil)
	e.RunUntil(5.5)
	if beat := d.LastHeartbeat(); beat < 4.5 {
		t.Fatalf("last heartbeat %g, want ~5", beat)
	}
	d.Fail()
	failAt := e.Now()
	e.RunUntil(20)
	if d.LastHeartbeat() > failAt {
		t.Fatal("failed device kept beating")
	}
}

func TestAssignRegionAndSweepTime(t *testing.T) {
	e := sim.NewEngine(1)
	p := DroneConfig().Power
	d := newDevice(e, 0, DroneConfig(), nil)
	d.AssignRegion(geo.Rect{X0: 0, Y0: 0, X1: 30, Y1: 30})
	if d.SweepTimeS() <= 0 {
		t.Fatal("sweep time should be positive")
	}
	if !d.region.Valid() {
		t.Fatal("region not stored")
	}
	// Moving for the sweep duration consumes motion energy.
	e.RunUntil(10)
	d.Settle()
	if still := 10 * (p.ComputeIdleW + p.BaseW + p.RadioW); consumedJ(d, p) <= still+1 {
		t.Fatalf("no motion energy while sweeping: %g J, %g J standing still", consumedJ(d, p), still)
	}
}

func TestTransmitReceiveEnergy(t *testing.T) {
	e := sim.NewEngine(1)
	p := DroneConfig().Power
	d := newDevice(e, 0, DroneConfig(), nil)
	d.Transmit(10)
	d.Receive(10)
	want := 10*p.TxJPerMB + 10*p.RxJPerMB
	if got := consumedJ(d, p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("radio energy = %g, want %g", got, want)
	}
}

func TestDistributedDrainsFasterThanCentralizedShape(t *testing.T) {
	// Fig. 14a mechanism: for a heavy job, 120s of on-board compute
	// drains more battery than 120s of shipping the same sensor data.
	runDistributed := func() float64 {
		e := sim.NewEngine(1)
		d := newDevice(e, 0, DroneConfig(), nil)
		d.SetMoving(true)
		var submit func()
		submit = func() {
			runTask(d, 3.5, func(TaskOutcome) {})
			if e.Now() < 120 {
				e.At(e.Now()+1, submit)
			}
		}
		e.At(0, submit)
		e.RunUntil(120)
		d.FinishMission()
		return d.Battery.ConsumedFraction()
	}
	runCentralized := func() float64 {
		e := sim.NewEngine(1)
		d := newDevice(e, 0, DroneConfig(), nil)
		d.SetMoving(true)
		var ship func()
		ship = func() {
			d.Transmit(8) // 8 MB/s offload
			if e.Now() < 120 {
				e.At(e.Now()+1, ship)
			}
		}
		e.At(0, ship)
		e.RunUntil(120)
		d.FinishMission()
		return d.Battery.ConsumedFraction()
	}
	dist, cent := runDistributed(), runCentralized()
	if dist <= cent {
		t.Fatalf("distributed %.3f should drain more than centralized %.3f", dist, cent)
	}
}

func TestFleetHelpers(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFleet(e, 4, DroneConfig(), nil)
	f[1].Fail()
	if !f[1].Failed() || f[0].Failed() {
		t.Fatalf("failed = %v, %v; want only device 1", f[0].Failed(), f[1].Failed())
	}
	f[0].Transmit(100)
	f.Settle()
	if f.MeanBatteryConsumed() <= 0 {
		t.Fatal("mean battery should be positive")
	}
	if f.MaxBatteryConsumed() < f.MeanBatteryConsumed() {
		t.Fatal("max < mean")
	}
	f.StopAll()
	if f[2].String() == "" {
		t.Fatal("empty device string")
	}
}

// TestReceiveAllocFree: a radio delivery (advance the energy integrator
// to now, then drain the receive energy) allocates nothing.
func TestReceiveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine(1)
	d := newDevice(e, 0, DroneConfig(), nil)
	d.SetMoving(true)
	e.RunUntil(2) // the heartbeat ticker has fired and re-armed
	allocs := testing.AllocsPerRun(1000, func() {
		e.RunUntil(e.Now() + 1e-3)
		d.Receive(0.01)
	})
	if allocs != 0 {
		t.Fatalf("Device.Receive allocates %.1f per delivery, want 0", allocs)
	}
	if d.Failed() {
		t.Fatal("device died during the gate; the drain was too large")
	}
}
