package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// grabber runs closures as Resource grants, which only name records.
type grabber struct {
	e    *Engine
	fns  []func()
	kind uint8
}

func newGrabber(e *Engine) *grabber {
	g := &grabber{e: e}
	g.kind = e.Handle(func(a, _ int32) { g.fns[a]() })
	return g
}

func (g *grabber) grab(r *Resource, fn func()) {
	g.fns = append(g.fns, fn)
	r.Grab(g.kind, int32(len(g.fns)-1), 0)
}

// use holds one unit of r for service seconds, then calls done (which
// may be nil): the common "queue at a station" step.
func (g *grabber) use(r *Resource, service Time, done func()) {
	g.grab(r, func() {
		g.e.Defer(service, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

func TestResourceGrantsImmediatelyWhenFree(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	g := newGrabber(e)
	granted := 0
	g.grab(r, func() { granted++ })
	g.grab(r, func() { granted++ })
	if granted != 2 || r.InUse() != 2 {
		t.Fatalf("granted=%d inuse=%d", granted, r.InUse())
	}
}

func TestResourceQueuesFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	g := newGrabber(e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		g.grab(r, func() {
			order = append(order, i)
			e.Defer(1, r.Release)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceUseHoldsForServiceTime(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	g := newGrabber(e)
	var done1, done2 Time
	g.use(r, 2.0, func() { done1 = e.Now() })
	g.use(r, 3.0, func() { done2 = e.Now() })
	e.Run()
	if done1 != 2.0 || done2 != 5.0 {
		t.Fatalf("done1=%g done2=%g, want 2 and 5", done1, done2)
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	r.Release()
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(e, 0)
}

func TestResourceUtilizationStats(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	g := newGrabber(e)
	// Both units are held together for 5s of a 10s window.
	g.use(r, 5, nil)
	g.use(r, 5, nil)
	var mid, end int
	e.At(4.9, func() { mid = r.InUse() })
	e.At(9, func() { end = r.InUse() })
	e.RunUntil(10)
	if mid != 2 || end != 0 {
		t.Fatalf("in use = %d at 4.9s and %d at 9s, want 2 and 0", mid, end)
	}
}

func TestResourceMeanWaitStats(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	g := newGrabber(e)
	var waits []Time
	maxQueue := 0
	use := func() {
		asked := e.Now()
		g.grab(r, func() {
			waits = append(waits, e.Now()-asked)
			e.Defer(4, r.Release)
		})
		if len(r.queue) > maxQueue {
			maxQueue = len(r.queue)
		}
	}
	use()        // waits 0
	use()        // waits 4
	e.At(2, use) // asks at 2, granted at 8: waits 6
	e.Run()
	want := []Time{0, 4, 6}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if math.Abs(waits[i]-want[i]) > 1e-9 {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
	if maxQueue != 2 {
		t.Fatalf("max queue = %d, want 2", maxQueue)
	}
}

// Property: a single-server queue with deterministic service conserves
// work — total completions equal total submissions, and the makespan is
// exactly n*service when all jobs arrive at time zero.
func TestResourceWorkConservationProperty(t *testing.T) {
	prop := func(nRaw uint8, svcRaw uint8) bool {
		n := int(nRaw%50) + 1
		svc := Time(svcRaw%20+1) / 10.0
		e := NewEngine(1)
		r := NewResource(e, 1)
		g := newGrabber(e)
		completions := 0
		for i := 0; i < n; i++ {
			g.use(r, svc, func() { completions++ })
		}
		e.Run()
		return completions == n && math.Abs(e.Now()-Time(n)*svc) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with capacity c, no more than c units are ever in use.
func TestResourceCapacityInvariantProperty(t *testing.T) {
	prop := func(capRaw, jobsRaw uint8, seed int64) bool {
		c := int(capRaw%8) + 1
		jobs := int(jobsRaw%60) + 1
		e := NewEngine(seed)
		r := NewResource(e, c)
		g := newGrabber(e)
		ok := true
		for i := 0; i < jobs; i++ {
			e.At(e.Rand().Float64()*10, func() {
				g.use(r, e.Rand().Float64()+0.1, func() {
					if r.InUse() > c {
						ok = false
					}
				})
				if r.InUse() > c {
					ok = false
				}
			})
		}
		e.Run()
		return ok && r.InUse() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceGrantReleaseAllocFree: a grant, a queued grant and their
// releases allocate nothing once the queue's array exists.
func TestResourceGrantReleaseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := NewEngine(1)
	r := NewResource(e, 1)
	granted := 0
	kind := e.Handle(func(int32, int32) { granted++ })
	cycle := func() {
		r.Grab(kind, 0, 0) // granted inline
		r.Grab(kind, 1, 0) // queued
		r.Release()        // grants the queued one inline
		r.Release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("grant and release allocate %.2f per cycle, want 0", allocs)
	}
	if granted != 2*1002 || r.InUse() != 0 { // AllocsPerRun adds a warm-up run
		t.Fatalf("granted %d, in use %d", granted, r.InUse())
	}
}
