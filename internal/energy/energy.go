// Package energy models edge-device batteries and power draw. The
// HiveMind evaluation reports consumed battery percentage per job and
// per scenario (Figs. 1, 14a, 16b); those numbers are driven by four
// loads — motion (flying/driving), on-board compute, radio transfer, and
// baseline electronics — which this package accounts separately so the
// experiment drivers can attribute consumption.
//
// Calibration note: the absolute wattages are behavioural constants
// chosen so the paper's *relative* results hold on the simulated swarm
// (distributed execution drains batteries fastest; centralized offload
// pays radio energy proportional to bytes moved; HiveMind sits lowest
// except for the light jobs S3/S4 where on-board execution costs
// slightly more than the tiny radio transfers it avoids). They are not
// measurements of Parrot hardware.
package energy

import "fmt"

// Load identifies a power-consumption category. It indexes the
// battery's fixed accounting array, so a drain is an array add.
type Load uint8

const (
	LoadMotion  Load = iota // rotors / wheels
	LoadCompute             // on-board task execution
	LoadRadio               // wireless TX/RX
	LoadBase                // sensors, camera, electronics
	numLoads
)

var loadNames = [numLoads]string{"motion", "compute", "radio", "base"}

// String returns the category's name.
func (l Load) String() string { return loadNames[l] }

// PowerProfile describes a device class's power characteristics.
type PowerProfile struct {
	CapacityJ float64 // usable battery energy, joules

	HoverW       float64 // stationary flight (drones) or idle-with-motors (rovers)
	MoveW        float64 // moving at cruise speed
	ComputeBusyW float64 // CPU fully busy on a task
	ComputeIdleW float64 // CPU idle
	BaseW        float64 // camera + sensors + board

	TxJPerMB float64 // radio energy per megabyte sent
	RxJPerMB float64 // radio energy per megabyte received
	RadioW   float64 // radio baseline while associated
}

// DroneProfile models the paper's Parrot AR. Drone 2.0 class device:
// small battery, flight power dominates, on-board compute is expensive
// relative to the battery budget.
func DroneProfile() PowerProfile {
	return PowerProfile{
		CapacityJ:    36000, // ~10 Wh usable
		HoverW:       45,
		MoveW:        50,
		ComputeBusyW: 30, // CPU + USB flash + thermal margin at full tilt
		ComputeIdleW: 2,
		BaseW:        4,
		TxJPerMB:     1.5,
		RxJPerMB:     0.3,
		RadioW:       0.8,
	}
}

// RoverProfile models the robotic cars of §5.5: bigger battery, cheap
// motion, so the cars are "less power-constrained than the drones".
func RoverProfile() PowerProfile {
	return PowerProfile{
		CapacityJ:    120000, // ~33 Wh
		HoverW:       2,      // stationary: electronics only
		MoveW:        12,
		ComputeBusyW: 8, // Raspberry Pi class
		ComputeIdleW: 1.5,
		BaseW:        3,
		TxJPerMB:     1.2,
		RxJPerMB:     0.25,
		RadioW:       0.7,
	}
}

// TinyBotProfile models a BittyBuzz-class micro-robot (Kilobot/Zooid
// scale): a coin-cell battery, milliwatt electronics, vibration-slide
// motion, and an IR/low-power radio whose per-byte cost is high even
// though absolute draw is tiny.
func TinyBotProfile() PowerProfile {
	return PowerProfile{
		CapacityJ:    1000, // ~90 mAh coin cell at 3 V
		HoverW:       0,
		MoveW:        0.25,
		ComputeBusyW: 0.12, // 8-bit MCU flat out
		ComputeIdleW: 0.01,
		BaseW:        0.03,
		TxJPerMB:     9, // low-rate IR transceiver
		RxJPerMB:     4,
		RadioW:       0.04,
	}
}

// Battery tracks energy consumption against a capacity, attributed by
// load category.
type Battery struct {
	empty    bool
	total    float64
	consumed [numLoads]float64
	onEmpty  func()
	profile  PowerProfile
}

// NewBattery returns a full battery for the profile. onEmpty, if
// non-nil, fires exactly once when consumption first reaches capacity.
// The battery holds no pointers into itself, so the owner may embed
// the returned value.
func NewBattery(p PowerProfile, onEmpty func()) Battery {
	return Battery{profile: p, onEmpty: onEmpty}
}

// Consume drains joules attributed to the load. Draining an empty
// battery is a no-op.
func (b *Battery) Consume(load Load, joules float64) {
	if joules <= 0 || b.empty {
		return
	}
	if b.total+joules >= b.profile.CapacityJ {
		joules = b.profile.CapacityJ - b.total
		b.consumed[load] += joules
		b.total = b.profile.CapacityJ
		b.empty = true
		if b.onEmpty != nil {
			b.onEmpty()
		}
		return
	}
	b.consumed[load] += joules
	b.total += joules
}

// ConsumePower drains power watts applied for duration seconds.
func (b *Battery) ConsumePower(load Load, watts, duration float64) {
	b.Consume(load, watts*duration)
}

// ConsumeTx drains transmit energy for megabytes sent.
func (b *Battery) ConsumeTx(megabytes float64) {
	b.Consume(LoadRadio, megabytes*b.profile.TxJPerMB)
}

// ConsumeRx drains receive energy for megabytes received.
func (b *Battery) ConsumeRx(megabytes float64) {
	b.Consume(LoadRadio, megabytes*b.profile.RxJPerMB)
}

// ConsumedFraction returns consumption as a fraction of capacity [0,1].
func (b *Battery) ConsumedFraction() float64 {
	if b.profile.CapacityJ <= 0 {
		return 0
	}
	return b.total / b.profile.CapacityJ
}

// String summarises the battery state.
func (b *Battery) String() string {
	return fmt.Sprintf("battery %.1f%% consumed (motion=%.0fJ compute=%.0fJ radio=%.0fJ base=%.0fJ)",
		b.ConsumedFraction()*100, b.consumed[LoadMotion], b.consumed[LoadCompute],
		b.consumed[LoadRadio], b.consumed[LoadBase])
}

// Integrator accrues time-based power draw between discrete simulation
// events. Call Advance(now) whenever device activity changes; it charges
// the battery for the elapsed interval using the activity flags set
// since the previous call.
type Integrator struct {
	bat      *Battery
	lastTime float64
	Moving   bool
	Hovering bool
	CPUBusy  bool
}

// NewIntegrator starts integrating into b at the given time.
func NewIntegrator(b *Battery, start float64) Integrator {
	return Integrator{bat: b, lastTime: start}
}

// Advance charges the battery for (now - last) seconds of the current
// activity state.
func (it *Integrator) Advance(now float64) {
	dt := now - it.lastTime
	if dt <= 0 {
		return
	}
	it.lastTime = now
	p := &it.bat.profile
	switch {
	case it.Moving:
		it.bat.ConsumePower(LoadMotion, p.MoveW, dt)
	case it.Hovering:
		it.bat.ConsumePower(LoadMotion, p.HoverW, dt)
	}
	if it.CPUBusy {
		it.bat.ConsumePower(LoadCompute, p.ComputeBusyW, dt)
	} else {
		it.bat.ConsumePower(LoadCompute, p.ComputeIdleW, dt)
	}
	it.bat.ConsumePower(LoadBase, p.BaseW+p.RadioW, dt)
}
