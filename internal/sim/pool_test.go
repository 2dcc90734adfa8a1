package sim

import "testing"

// drainPool returns an engine whose next schedule reuses recycled
// events: run one throwaway event through the loop so the pool holds at
// least one recycled struct.
func primePool(e *Engine) {
	e.Defer(0, func() {})
	e.RunUntil(e.Now())
}

// TestCancelledTimerEventIsReused pins the pooling contract for the
// cancel path: a cancelled event is recycled once popped, and the stale
// Timer handle must go inert — it cannot cancel whatever event next
// occupies the recycled struct.
func TestCancelledTimerEventIsReused(t *testing.T) {
	e := NewEngine(1)
	tm := timerAt(e, 1, func() { t.Fatal("cancelled event fired") })
	if !tm.Cancel() {
		t.Fatal("Cancel reported false for a pending timer")
	}
	// Pop (and recycle) the cancelled event.
	e.RunUntil(2)
	if len(e.events) != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", len(e.events))
	}

	// Schedule new work; with a single-threaded engine the pool hands
	// back the recycled struct. The stale handle must stay inert either
	// way — gen guards correctness even if the pool misses.
	fired := false
	e.At(3, func() { fired = true })
	if tm.Cancel() {
		t.Fatal("stale Timer cancelled a recycled event")
	}
	if !tm.cancelled {
		t.Fatal("cancelled timer lost its cancelled state")
	}
	e.RunUntil(4)
	if !fired {
		t.Fatal("new event did not fire — stale handle corrupted it")
	}
}

// TestFiredTimerHandleIsInert: after an event fires and its struct is
// recycled into a new schedule, Cancel via the old handle must be a
// no-op and report false.
func TestFiredTimerHandleIsInert(t *testing.T) {
	e := NewEngine(1)
	tm := timerAt(e, 1, func() {})
	e.RunUntil(2)
	if tm.Cancel() {
		t.Fatal("Cancel reported true for an already-fired timer")
	}
	fired := false
	e.At(3, func() { fired = true })
	if tm.Cancel() {
		t.Fatal("stale fired-timer handle cancelled a recycled event")
	}
	e.RunUntil(4)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestPendingAccountsCancelledEvents: Pending counts cancelled events
// until they are popped, and drops to zero once the loop drains them.
func TestPendingAccountsCancelledEvents(t *testing.T) {
	e := NewEngine(1)
	var tms []*Timer
	for i := 1; i <= 5; i++ {
		tms = append(tms, timerAt(e, Time(i), func() {}))
	}
	if len(e.events) != 5 {
		t.Fatalf("Pending() = %d, want 5", len(e.events))
	}
	tms[1].Cancel()
	tms[3].Cancel()
	if len(e.events) != 5 {
		t.Fatalf("Pending() = %d after cancels, want 5 (cancelled events stay queued)", len(e.events))
	}
	if n := e.RunUntil(3); n != 2 {
		t.Fatalf("executed %d events to t=3, want 2 (one cancelled)", n)
	}
	if len(e.events) != 2 {
		t.Fatalf("Pending() = %d at t=3, want 2", len(e.events))
	}
	e.Run()
	if len(e.events) != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", len(e.events))
	}
}

// TestSelfCancelDuringDispatchIsNoop: a callback cancelling its own
// timer mid-dispatch must report false and not disturb the loop.
func TestSelfCancelDuringDispatchIsNoop(t *testing.T) {
	e := NewEngine(1)
	var tm *Timer
	ran := false
	tm = timerAt(e, 1, func() {
		ran = true
		if tm.Cancel() {
			t.Error("self-cancel during dispatch reported true")
		}
	})
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
}

// TestScheduleFireLoopAllocs asserts the steady-state allocation budget
// of the schedule-fire hot loop: with pooled events, a Defer round trip
// is allocation-free.
func TestScheduleFireLoopAllocs(t *testing.T) {
	e := NewEngine(1)
	primePool(e)

	var step func()
	step = func() { e.Defer(0.001, step) }
	step()
	e.RunUntil(e.Now() + 1)
	allocs := testing.AllocsPerRun(2000, func() {
		e.RunUntil(e.Now() + 0.001)
	})
	if allocs > 0.1 {
		t.Fatalf("Defer schedule-fire loop allocates %.2f/op, want ~0", allocs)
	}
}

// TestHeapOrderAfterPooling re-checks time ordering with interleaved
// cancels and reuse, exercising the hand-rolled sift paths.
func TestHeapOrderAfterPooling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	// Two rounds so round two runs entirely on recycled events.
	for round := 0; round < 2; round++ {
		base := e.Now()
		var cancels []*Timer
		for i := 0; i < 50; i++ {
			at := base + Time((i*37)%50)/10
			tm := timerAt(e, at, func() { fired = append(fired, e.Now()) })
			if i%5 == 0 {
				cancels = append(cancels, tm)
			}
		}
		for _, tm := range cancels {
			tm.Cancel()
		}
		e.RunUntil(base + 10)
	}
	if len(fired) != 2*40 {
		t.Fatalf("fired %d events, want 80", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out-of-order firing at %d: %g < %g", i, fired[i], fired[i-1])
		}
	}
}
