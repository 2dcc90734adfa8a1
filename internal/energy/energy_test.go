package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBatteryConsumeAndAttribution(t *testing.T) {
	b := NewBattery(PowerProfile{CapacityJ: 100}, nil)
	b.Consume(LoadMotion, 30)
	b.Consume(LoadCompute, 20)
	if b.total != 50 || b.ConsumedFraction() != 0.5 || b.profile.CapacityJ-b.total != 50 {
		t.Fatalf("state: %s", &b)
	}
	if b.consumed[LoadMotion] != 30 || b.consumed[LoadCompute] != 20 {
		t.Fatal("attribution wrong")
	}
	if b.empty {
		t.Fatal("not empty yet")
	}
}

func TestBatteryEmptyCallbackFiresOnce(t *testing.T) {
	fires := 0
	b := NewBattery(PowerProfile{CapacityJ: 10}, func() { fires++ })
	b.Consume(LoadMotion, 8)
	b.Consume(LoadMotion, 5) // crosses capacity
	b.Consume(LoadMotion, 5) // already empty: no-op
	if fires != 1 {
		t.Fatalf("onEmpty fired %d times", fires)
	}
	if !b.empty || b.total != 10 {
		t.Fatalf("consumed %g, empty=%v", b.total, b.empty)
	}
	if b.ConsumedFraction() != 1.0 {
		t.Fatalf("fraction = %g", b.ConsumedFraction())
	}
}

func TestBatteryClampsAtCapacity(t *testing.T) {
	b := NewBattery(PowerProfile{CapacityJ: 10}, nil)
	b.Consume(LoadRadio, 25)
	if b.total != 10 || b.consumed[LoadRadio] != 10 {
		t.Fatalf("overdrain: %g", b.total)
	}
}

func TestBatteryNegativeAndZeroNoop(t *testing.T) {
	b := NewBattery(PowerProfile{CapacityJ: 10}, nil)
	b.Consume(LoadMotion, 0)
	b.Consume(LoadMotion, -5)
	if b.total != 0 {
		t.Fatalf("consumed %g from no-op drains", b.total)
	}
}

func TestConsumeTxRxUseProfileRates(t *testing.T) {
	p := PowerProfile{CapacityJ: 1000, TxJPerMB: 2, RxJPerMB: 0.5}
	b := NewBattery(p, nil)
	b.ConsumeTx(10)
	b.ConsumeRx(10)
	if b.consumed[LoadRadio] != 25 {
		t.Fatalf("radio energy = %g, want 25", b.consumed[LoadRadio])
	}
}

func TestConsumePower(t *testing.T) {
	b := NewBattery(PowerProfile{CapacityJ: 1000}, nil)
	b.ConsumePower(LoadCompute, 5, 4)
	if b.consumed[LoadCompute] != 20 {
		t.Fatalf("compute energy = %g", b.consumed[LoadCompute])
	}
}

func TestIntegratorChargesByActivity(t *testing.T) {
	p := PowerProfile{CapacityJ: 1e6, MoveW: 50, HoverW: 45, ComputeBusyW: 30, ComputeIdleW: 2, BaseW: 4, RadioW: 1}
	b := NewBattery(p, nil)
	it := NewIntegrator(&b, 0)
	it.Moving = true
	it.CPUBusy = false
	it.Advance(10) // 10s moving, idle cpu
	wantMotion := 500.0
	wantCompute := 20.0
	wantBase := 50.0
	if b.consumed[LoadMotion] != wantMotion {
		t.Fatalf("motion = %g", b.consumed[LoadMotion])
	}
	if b.consumed[LoadCompute] != wantCompute {
		t.Fatalf("compute = %g", b.consumed[LoadCompute])
	}
	if b.consumed[LoadBase] != wantBase {
		t.Fatalf("base = %g", b.consumed[LoadBase])
	}
	it.Moving = false
	it.Hovering = true
	it.CPUBusy = true
	it.Advance(20) // 10s hover + busy
	if got := b.consumed[LoadMotion]; got != wantMotion+450 {
		t.Fatalf("motion after hover = %g", got)
	}
	if got := b.consumed[LoadCompute]; got != wantCompute+300 {
		t.Fatalf("compute after busy = %g", got)
	}
}

func TestIntegratorIgnoresTimeTravel(t *testing.T) {
	b := NewBattery(PowerProfile{CapacityJ: 100, MoveW: 10}, nil)
	it := NewIntegrator(&b, 5)
	it.Moving = true
	it.Advance(3) // before start: no-op
	if b.total != 0 {
		t.Fatalf("consumed %g for negative interval", b.total)
	}
}

func TestProfilesShapeMatchesPaper(t *testing.T) {
	d, r := DroneProfile(), RoverProfile()
	// Drones are power constrained: flying dominates, small battery.
	if d.MoveW <= d.ComputeBusyW {
		t.Fatal("drone motion should dominate compute")
	}
	// Rovers are less power-constrained (§5.5): bigger battery, cheaper
	// motion relative to capacity.
	droneBudget := d.CapacityJ / d.MoveW // seconds of motion
	roverBudget := r.CapacityJ / r.MoveW
	if roverBudget <= droneBudget {
		t.Fatalf("rover endurance (%gs) should exceed drone endurance (%gs)", roverBudget, droneBudget)
	}
	// On-board compute must be expensive relative to radio for heavy
	// data rates to reproduce Fig. 14a's distributed-vs-centralized gap:
	// at the default 16 MB/s sensor rate, radio energy/s must be below
	// busy-compute watts so distributed drains faster for heavy jobs.
	radioWattsAt16MBps := 16 * d.TxJPerMB
	if radioWattsAt16MBps >= d.ComputeBusyW {
		t.Fatalf("radio %gW at 16MB/s should be below busy compute %gW",
			radioWattsAt16MBps, d.ComputeBusyW)
	}
}

// Property: consumption is monotone non-decreasing and never exceeds
// capacity regardless of the drain sequence.
func TestBatteryInvariantProperty(t *testing.T) {
	prop := func(drains []float64) bool {
		b := NewBattery(PowerProfile{CapacityJ: 50}, nil)
		prev := 0.0
		for i, d := range drains {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			b.Consume(Load(i%int(numLoads)), d)
			if b.total < prev || b.total > 50+1e-9 {
				return false
			}
			prev = b.total
		}
		var byLoad float64
		for _, j := range b.consumed {
			byLoad += j
		}
		return math.Abs(byLoad-b.total) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadNamesAndBatteryStringUnchanged pins the category names and
// the summary line: Load is an array index, but what it prints is not
// allowed to change.
func TestLoadNamesAndBatteryStringUnchanged(t *testing.T) {
	var names []string
	for l := Load(0); l < numLoads; l++ {
		names = append(names, l.String())
	}
	if got := strings.Join(names, " "); got != "motion compute radio base" {
		t.Fatalf("load names = %s", got)
	}
	b := NewBattery(PowerProfile{CapacityJ: 1000}, nil)
	for i, j := range []float64{100, 50, 25, 5} {
		b.Consume(Load(i), j)
	}
	want := "battery 18.0% consumed (motion=100J compute=50J radio=25J base=5J)"
	if got := b.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestHotPathAllocFree: every radio delivery drains the battery and
// advances the integrator; neither may allocate.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	b := NewBattery(DroneProfile(), nil)
	it := NewIntegrator(&b, 0)
	it.Moving = true
	if a := testing.AllocsPerRun(1000, func() { b.Consume(LoadRadio, 1e-3) }); a != 0 {
		t.Fatalf("Battery.Consume allocates %.1f per call, want 0", a)
	}
	now := 0.0
	if a := testing.AllocsPerRun(1000, func() { now += 1e-3; it.Advance(now) }); a != 0 {
		t.Fatalf("Integrator.Advance allocates %.1f per call, want 0", a)
	}
}
