// Package device models the swarm's edge devices: the Parrot AR-class
// drones of §2.1 (1 GHz single-core ARM, front + bottom cameras, sensor
// suite, 4 m/s cruise, ~6.7 m × 8.75 m camera footprint per frame, 8 fps
// × 2 MB default capture) and the Raspberry Pi robotic cars of §5.5.
// A Device integrates mobility, sensor-data generation, a bounded
// on-board executor (one core, drop-on-overflow), battery accounting,
// heartbeats (1 s period, §4.6) and failure injection.
package device

import (
	"fmt"

	"hivemind/internal/energy"
	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// Kind distinguishes device classes.
type Kind int

const (
	Drone Kind = iota
	Rover
	// TinyBot is a BittyBuzz-class micro-robot (Kilobot/Zooid scale):
	// coin-cell battery, centimeters-per-second motion, short-range
	// low-rate radio — the third fleet class of the mega-swarm
	// scenarios.
	TinyBot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Rover:
		return "rover"
	case TinyBot:
		return "tinybot"
	default:
		return "drone"
	}
}

// Config describes a device class.
type Config struct {
	Kind        Kind
	Power       energy.PowerProfile
	SpeedMps    float64 // cruise speed
	FrameMB     float64 // camera frame size
	FPS         float64 // capture rate
	SwathWidthM float64 // camera ground footprint width (sweep swath)
	QueueLimit  int     // on-board task queue bound (drop beyond)
	HeartbeatS  float64 // heartbeat period (§4.6: once per second)
}

// DroneConfig returns the paper's drone calibration.
func DroneConfig() Config {
	return Config{
		Kind:        Drone,
		Power:       energy.DroneProfile(),
		SpeedMps:    4,
		FrameMB:     2,
		FPS:         8,
		SwathWidthM: 6.7,
		QueueLimit:  3,
		HeartbeatS:  1,
	}
}

// TinyBotConfig returns the BittyBuzz-class micro-robot calibration:
// a Kilobot/Zooid-scale device with vibration-slide motion, an ambient
// light/IR sensor instead of a camera, and a short-range low-rate
// radio. Everything is three orders of magnitude below the drone.
func TinyBotConfig() Config {
	return Config{
		Kind:        TinyBot,
		Power:       energy.TinyBotProfile(),
		SpeedMps:    0.01, // ~1 cm/s vibration slide
		FrameMB:     0.002,
		FPS:         2,
		SwathWidthM: 0.1,
		QueueLimit:  1,
		HeartbeatS:  2,
	}
}

// RoverConfig returns the robotic-car calibration (§5.5): slower, bigger
// battery, same camera class.
func RoverConfig() Config {
	return Config{
		Kind:        Rover,
		Power:       energy.RoverProfile(),
		SpeedMps:    1.2,
		FrameMB:     2,
		FPS:         8,
		SwathWidthM: 3.0,
		QueueLimit:  4,
		HeartbeatS:  1,
	}
}

// Device is one swarm member. Its energy state lives inline, so a radio
// delivery (read failed, advance the integrator, drain the battery)
// touches one allocation.
type Device struct {
	failed bool // first: every delivery reads it before anything else
	eng    *sim.Engine
	integ  energy.Integrator

	Battery energy.Battery // holds the power profile

	ID int

	// The configuration Init copies in: only what the device reads
	// afterwards.
	kind        Kind
	speedMps    float64
	swathWidthM float64
	queueLimit  int
	heartbeatS  float64

	cpu    *sim.Resource // made by the first RunTask
	queued int

	region geo.Rect

	onFailed func(*Device)

	lastBeat sim.Time
	beat     sim.Timer // the pending heartbeat: record beatKind, a = ID
	beatKind uint8
}

// Init sets d up in place as device id on eng, so a fleet can live in
// one slab. onFailed (may be nil) fires once when the device fails —
// battery depletion or injected fault. The heartbeat, which integrates
// slow drains, is record kind beat, a = id: its handler calls d.Beat.
func (d *Device) Init(eng *sim.Engine, id int, cfg Config, onFailed func(*Device), beat uint8) {
	*d = Device{
		eng: eng, ID: id,
		kind: cfg.Kind, speedMps: cfg.SpeedMps, swathWidthM: cfg.SwathWidthM,
		queueLimit: cfg.QueueLimit, heartbeatS: cfg.HeartbeatS,
		onFailed: onFailed, lastBeat: eng.Now(), beatKind: beat,
	}
	d.Battery = energy.NewBattery(cfg.Power, func() { d.Fail() })
	d.integ = energy.NewIntegrator(&d.Battery, eng.Now())
	d.armBeat()
}

func (d *Device) armBeat() {
	d.beat = d.eng.Post(d.eng.Now()+d.heartbeatS, d.beatKind, int32(d.ID), 0)
}

// Beat runs one heartbeat and arms the next (Fail cancels it).
func (d *Device) Beat() {
	d.integ.Advance(d.eng.Now())
	if !d.failed { // the drain may have emptied the battery
		d.lastBeat = d.eng.Now()
		d.armBeat()
	}
}

// Failed reports whether the device is down.
func (d *Device) Failed() bool { return d.failed }

// LastHeartbeat returns when the device last emitted a heartbeat.
func (d *Device) LastHeartbeat() sim.Time { return d.lastBeat }

// AssignRegion gives the device a coverage region and starts it moving.
func (d *Device) AssignRegion(r geo.Rect) {
	d.integ.Advance(d.eng.Now())
	d.region = r
	d.integ.Moving = r.Valid()
	d.integ.Hovering = !r.Valid() && d.kind == Drone
}

// SetMoving toggles motion (drones hover when not moving).
func (d *Device) SetMoving(moving bool) {
	d.integ.Advance(d.eng.Now())
	d.integ.Moving = moving
	d.integ.Hovering = !moving && d.kind == Drone
}

// SweepTimeS returns how long covering the assigned region takes.
func (d *Device) SweepTimeS() float64 {
	return geo.SweepTime(d.region, d.swathWidthM, d.speedMps)
}

// Fail marks the device as failed (battery or injected fault) exactly
// once, accounts pending energy, and notifies the owner.
func (d *Device) Fail() {
	if d.failed {
		return
	}
	d.integ.Advance(d.eng.Now())
	d.failed = true
	d.integ.Moving = false
	d.integ.Hovering = false
	d.integ.CPUBusy = false
	d.beat.Cancel()
	if d.onFailed != nil {
		d.onFailed(d)
	}
}

// TaskOutcome reports an on-board execution.
type TaskOutcome struct {
	Dropped bool
	QueueS  float64
	ExecS   float64
}

// RunTask executes a task on the on-board core. If the bounded queue is
// full the task is dropped (sensor batches are skipped when the device
// cannot keep up) and done is called immediately with Dropped=true.
func (d *Device) RunTask(execS float64, done func(TaskOutcome)) {
	if d.failed {
		done(TaskOutcome{Dropped: true})
		return
	}
	if d.queued >= d.queueLimit {
		done(TaskOutcome{Dropped: true})
		return
	}
	d.queued++
	if d.cpu == nil {
		d.cpu = sim.NewResource(d.eng, 1)
	}
	enq := d.eng.Now()
	d.cpu.Grab(func() {
		start := d.eng.Now()
		if d.failed {
			d.queued--
			d.cpu.Release()
			done(TaskOutcome{Dropped: true, QueueS: start - enq})
			return
		}
		d.integ.Advance(start)
		d.integ.CPUBusy = true
		d.eng.Defer(execS, func() {
			d.integ.Advance(d.eng.Now())
			d.queued--
			d.cpu.Release() // may synchronously start the next queued task
			d.integ.CPUBusy = d.cpu.InUse() > 0
			done(TaskOutcome{QueueS: start - enq, ExecS: execS})
		})
	})
}

// Transmit accounts radio energy for sending megabytes to the cloud.
func (d *Device) Transmit(mb float64) {
	d.integ.Advance(d.eng.Now())
	d.Battery.ConsumeTx(mb)
}

// Receive accounts radio energy for receiving megabytes.
func (d *Device) Receive(mb float64) {
	d.integ.Advance(d.eng.Now())
	d.Battery.ConsumeRx(mb)
}

// FinishMission stops motion and settles the energy account.
func (d *Device) FinishMission() {
	d.SetMoving(false)
	d.integ.Advance(d.eng.Now())
}

// Settle forces energy integration up to now (call before reading the
// battery at the end of an experiment).
func (d *Device) Settle() {
	if !d.failed {
		d.integ.Advance(d.eng.Now())
	}
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s-%d (battery %.0f%%, %s)", d.kind, d.ID,
		(1-d.Battery.ConsumedFraction())*100,
		map[bool]string{true: "failed", false: "ok"}[d.failed])
}

// Fleet is a convenience collection.
type Fleet []*Device

// NewFleet builds n devices, ids 0..n-1, in one slab with one heartbeat kind.
func NewFleet(eng *sim.Engine, n int, cfg Config, onFailed func(*Device)) Fleet {
	slab := make([]Device, n)
	beat := eng.Handle(func(a, _ int32) { slab[a].Beat() })
	fleet := make(Fleet, n)
	for i := range fleet {
		slab[i].Init(eng, i, cfg, onFailed, beat)
		fleet[i] = &slab[i]
	}
	return fleet
}

// Settle settles all devices' energy accounts.
func (f Fleet) Settle() {
	for _, d := range f {
		d.Settle()
	}
}

// MeanBatteryConsumed returns the average consumed fraction [0,1].
func (f Fleet) MeanBatteryConsumed() float64 {
	if len(f) == 0 {
		return 0
	}
	var sum float64
	for _, d := range f {
		sum += d.Battery.ConsumedFraction()
	}
	return sum / float64(len(f))
}

// MaxBatteryConsumed returns the worst-case consumed fraction.
func (f Fleet) MaxBatteryConsumed() float64 {
	var max float64
	for _, d := range f {
		if c := d.Battery.ConsumedFraction(); c > max {
			max = c
		}
	}
	return max
}

// StopAll halts device periodic work (end of experiment).
func (f Fleet) StopAll() {
	for _, d := range f {
		d.beat.Cancel()
	}
}
