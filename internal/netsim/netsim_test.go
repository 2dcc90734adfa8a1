package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"hivemind/internal/sim"
)

// calls runs test closures as records: kind, with a = the closure's index.
type calls struct {
	fns  []func()
	kind uint8
}

func newCalls(e *sim.Engine) *calls {
	c := &calls{}
	c.kind = e.Handle(func(a, _ int32) { c.fns[a]() })
	return c
}

// add registers fn and returns the record argument that runs it.
func (c *calls) add(fn func()) int32 {
	c.fns = append(c.fns, fn)
	return int32(len(c.fns) - 1)
}

func TestMediumSingleFlowRate(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0) // 100 B/s
	var done sim.Time
	m.Transfer(500, c.kind, c.add(func() { done = e.Now() }), 0)
	e.Run()
	if math.Abs(done-5.0) > 1e-4 {
		t.Fatalf("500B at 100B/s finished at %g, want 5", done)
	}
}

func TestMediumFairSharing(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0)
	var t1, t2 sim.Time
	m.Transfer(300, c.kind, c.add(func() { t1 = e.Now() }), 0)
	m.Transfer(300, c.kind, c.add(func() { t2 = e.Now() }), 0)
	e.Run()
	// Two equal flows at 50 B/s each: both finish at 6s.
	if math.Abs(t1-6) > 1e-4 || math.Abs(t2-6) > 1e-4 {
		t.Fatalf("finish times %g, %g; want 6, 6", t1, t2)
	}
}

func TestMediumShortFlowFinishesFirstThenLongSpeedsUp(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0)
	var tShort, tLong sim.Time
	m.Transfer(100, c.kind, c.add(func() { tShort = e.Now() }), 0)
	m.Transfer(300, c.kind, c.add(func() { tLong = e.Now() }), 0)
	e.Run()
	// Shared at 50B/s until short (100B) done at t=2; long has 200B left
	// at full 100B/s: done at t=4.
	if math.Abs(tShort-2) > 1e-4 {
		t.Fatalf("short finished at %g, want 2", tShort)
	}
	if math.Abs(tLong-4) > 1e-4 {
		t.Fatalf("long finished at %g, want 4", tLong)
	}
}

func TestMediumPerFlowCap(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 1000, 10) // huge capacity, 10 B/s per flow
	var done sim.Time
	m.Transfer(100, c.kind, c.add(func() { done = e.Now() }), 0)
	e.Run()
	if math.Abs(done-10) > 1e-4 {
		t.Fatalf("capped flow finished at %g, want 10", done)
	}
}

func TestMediumLateArrival(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0)
	var tA, tB sim.Time
	m.Transfer(400, c.kind, c.add(func() { tA = e.Now() }), 0)
	e.At(2, func() { m.Transfer(100, c.kind, c.add(func() { tB = e.Now() }), 0) })
	e.Run()
	// A alone 0-2s: 200B done. Then sharing at 50B/s: B(100B) done at t=4.
	// A has 200-100=100B left at t=4, alone again: done at t=5.
	if math.Abs(tB-4) > 1e-4 || math.Abs(tA-5) > 1e-4 {
		t.Fatalf("tA=%g (want 5), tB=%g (want 4)", tA, tB)
	}
}

func TestMediumZeroSizeCompletesImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0)
	fired := false
	m.Transfer(0, c.kind, c.add(func() { fired = true }), 0)
	if !fired {
		t.Fatal("zero-size transfer did not complete synchronously")
	}
}

func TestMediumSetCapacityMidFlow(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	m := NewMedium(e, 100, 0)
	var done sim.Time
	m.Transfer(400, c.kind, c.add(func() { done = e.Now() }), 0)
	e.At(2, func() { m.SetCapacity(200) }) // 200B left, now at 200B/s
	e.Run()
	if math.Abs(done-3) > 1e-4 {
		t.Fatalf("done at %g, want 3", done)
	}
}

func TestMediumMeterConservation(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMedium(e, 100, 0)
	total := 0.0
	for _, sz := range []float64{100, 250, 300} {
		sz := sz
		m.Transfer(sz, 0, 0, 0)
		total += sz
	}
	e.Run()
	if math.Abs(m.Meter().Total()-total) > 1 {
		t.Fatalf("metered %g bytes, want %g", m.Meter().Total(), total)
	}
}

// Property: total transfer time for n equal simultaneous flows equals
// n*size/capacity (work conservation under fair sharing).
func TestMediumWorkConservationProperty(t *testing.T) {
	prop := func(nRaw, szRaw uint8) bool {
		n := int(nRaw%10) + 1
		size := float64(szRaw%100+1) * 10
		e := sim.NewEngine(1)
		c := newCalls(e)
		m := NewMedium(e, 100, 0)
		var last sim.Time
		for i := 0; i < n; i++ {
			m.Transfer(size, c.kind, c.add(func() { last = e.Now() }), 0)
		}
		e.Run()
		want := float64(n) * size / 100
		return math.Abs(last-want) < 1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumDeterministic(t *testing.T) {
	run := func() []sim.Time {
		e := sim.NewEngine(9)
		c := newCalls(e)
		m := NewMedium(e, 1000, 0)
		var finishes []sim.Time
		for i := 0; i < 50; i++ {
			at := e.Rand().Float64() * 5
			size := e.Rand().Float64()*1000 + 1
			e.At(at, func() {
				m.Transfer(size, c.kind, c.add(func() { finishes = append(finishes, e.Now()) }), 0)
			})
		}
		e.Run()
		return finishes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestNetworkEdgeToCloudBreakdown(t *testing.T) {
	e := sim.NewEngine(1)
	c := newCalls(e)
	n := NewNetwork(e, DefaultConfig())
	var total sim.Time
	n.EdgeToCloud(2e6, c.kind, c.add(func() { total = e.Now() }), 0) // 2MB frame
	e.Run()
	// Protocol processing at both ends, then 2MB uncontended at the
	// 50MB/s per-device cap = 40ms on the medium, then propagation.
	want := (procPerMsgS+procPerMBS*2)*2 + 0.04 + wirelessPropS
	if math.Abs(total-want) > 1e-4 {
		t.Fatalf("total = %g, want %g", total, want)
	}
}

func TestNetworkAccelReducesProcessing(t *testing.T) {
	cfg := DefaultConfig()
	transfer := func(accel bool) sim.Time {
		e := sim.NewEngine(1)
		c := newCalls(e)
		cfg.RPCAccel = accel
		var total sim.Time
		NewNetwork(e, cfg).EdgeToCloud(64, c.kind, c.add(func() { total = e.Now() }), 0)
		e.Run()
		return total
	}
	// A 64 B message: the totals differ by the two endpoints' processing.
	sw, hw := transfer(false), transfer(true)
	swProc := (procPerMsgS + procPerMBS*64/1e6) * 2
	if hwProc := swProc - (sw - hw); hwProc >= swProc/100 {
		t.Fatalf("accel proc %g not ≪ software proc %g", hwProc, swProc)
	}
}

func TestScaleWireless(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, DefaultConfig())
	base := n.Wireless.capacity
	n.ScaleWireless(4)
	if n.Wireless.capacity != base*4 {
		t.Fatalf("scaled capacity = %g", n.Wireless.capacity)
	}
}

func TestWirelessSaturationKnee(t *testing.T) {
	// Reproduces the Fig. 3b mechanism in miniature: per-device offered
	// load beyond the shared capacity should inflate transfer latency.
	latency := func(devices int) float64 {
		e := sim.NewEngine(1)
		c := newCalls(e)
		n := NewNetwork(e, DefaultConfig())
		var worst sim.Time
		for d := 0; d < devices; d++ {
			for i := 0; i < 10; i++ {
				at := float64(i) * 0.125 // 8 fps
				e.At(at, func() {
					start := e.Now()
					n.EdgeToCloud(8e6, c.kind, c.add(func() { // 8MB frames
						if l := e.Now() - start; l > worst {
							worst = l
						}
					}), 0)
				})
			}
		}
		e.Run()
		return worst
	}
	low, high := latency(2), latency(16)
	if high < 5*low {
		t.Fatalf("no saturation knee: 2 drones %.3gs vs 16 drones %.3gs", low, high)
	}
}

// TestEdgeToCloudAllocFree: once the slabs are warm, a transfer's
// stages are records on slab state and allocate nothing.
func TestEdgeToCloudAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine(1)
	n := NewNetwork(e, DefaultConfig())
	arrived := 0
	kind := e.Handle(func(int32, int32) { arrived++ })
	send := func() {
		n.EdgeToCloud(2e6, kind, 0, 0)
		e.RunUntil(e.Now() + 0.1)
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("a warm EdgeToCloud allocates %.2f, want 0", allocs)
	}
	if arrived != 202 {
		t.Fatalf("%d transfers arrived, want 202", arrived)
	}
}
