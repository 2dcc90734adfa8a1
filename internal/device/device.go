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

	tasks *taskQueue // made by the first RunTask

	region geo.Rect

	onFailed func(*Device)

	lastBeat sim.Time
	beat     sim.Timer // the pending heartbeat: record beatKind, a = ID
	beatKind uint8
	taskKind uint8 // the running task's end: record taskKind, a = ID
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

// taskQueue is the on-board core's FIFO: the head runs, the rest wait.
type taskQueue struct {
	q   []task
	out TaskOutcome // of the task whose record is running
}

// task is one on-board task and the record its end runs.
type task struct {
	execS, enq, start float64
	kind              uint8
	a, b              int32
}

// RunTask executes a task on the on-board core of a NewFleet device and
// runs record (kind, a, b) inline when it ends; Outcome reports the
// task while that handler runs. If the bounded queue is full the task
// is dropped (sensor batches are skipped when the device cannot keep
// up) and the record runs at once with Dropped=true.
func (d *Device) RunTask(execS float64, kind uint8, a, b int32) {
	if d.tasks == nil {
		d.tasks = &taskQueue{}
	}
	t := task{execS: execS, enq: d.eng.Now(), kind: kind, a: a, b: b}
	if d.failed || len(d.tasks.q) >= d.queueLimit {
		d.tasks.out = TaskOutcome{Dropped: true}
		d.eng.Fire(kind, a, b)
	} else if d.tasks.q = append(d.tasks.q, t); len(d.tasks.q) == 1 {
		d.start()
	}
}

// Outcome reports the task whose end record is running.
func (d *Device) Outcome() TaskOutcome { return d.tasks.out }

// start runs the head task or, if the device failed while it waited,
// drops it.
func (d *Device) start() {
	t := &d.tasks.q[0]
	if t.start = d.eng.Now(); d.failed {
		d.next(TaskOutcome{Dropped: true, QueueS: t.start - t.enq})
		return
	}
	d.integ.Advance(t.start)
	d.integ.CPUBusy = true
	d.eng.PostIn(t.execS, d.taskKind, int32(d.ID), 0)
}

// finish ends the running task: record taskKind.
func (d *Device) finish() {
	d.integ.Advance(d.eng.Now())
	t := &d.tasks.q[0]
	d.next(TaskOutcome{QueueS: t.start - t.enq, ExecS: t.execS})
}

// next removes the head task, starts the one after and then hands the
// head's outcome to the record it named.
func (d *Device) next(out TaskOutcome) {
	q := d.tasks.q
	t := q[0]
	if d.tasks.q = q[:copy(q, q[1:])]; len(d.tasks.q) > 0 {
		d.start()
	}
	d.integ.CPUBusy = len(d.tasks.q) > 0
	d.tasks.out = out
	d.eng.Fire(t.kind, t.a, t.b)
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

// NewFleet builds n devices, ids 0..n-1, in one slab with one heartbeat
// kind and one task kind.
func NewFleet(eng *sim.Engine, n int, cfg Config, onFailed func(*Device)) Fleet {
	slab := make([]Device, n)
	beat := eng.Handle(func(a, _ int32) { slab[a].Beat() })
	ran := eng.Handle(func(a, _ int32) { slab[a].finish() })
	fleet := make(Fleet, n)
	for i := range fleet {
		slab[i].Init(eng, i, cfg, onFailed, beat)
		slab[i].taskKind = ran
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
