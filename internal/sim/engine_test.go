package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %g, want 3", e.Now())
	}
}

func TestEngineTiesBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, order)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(10, func() {
		e.Defer(2.5, func() { at = e.Now() })
	})
	e.Run()
	if at != 12.5 {
		t.Fatalf("fired at %g, want 12.5", at)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(4, func() { e.Defer(-1, func() { fired = true }) })
	e.Run()
	if !fired || e.Now() != 4 {
		t.Fatalf("fired=%v now=%g", fired, e.Now())
	}
}

func TestEngineRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine(1)
	fired := map[Time]bool{}
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired[at] = true })
	}
	n := e.RunUntil(3)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if !fired[3] || fired[4] {
		t.Fatalf("wrong events fired: %v", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %g, want 3", e.Now())
	}
	e.Run()
	if !fired[5] {
		t.Fatal("remaining events lost after RunUntil")
	}
}

func TestEngineRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %g, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

// timerAt schedules a cancellable closure event: model code cancels
// records only, but the cancel path is the same for both.
func timerAt(e *Engine, t Time, fn func()) *Timer {
	tm := e.schedule(t, fn, 0, 0, 0)
	return &tm
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := timerAt(e, 5, func() { fired = true })
	e.At(1, func() {
		if !tm.Cancel() {
			t.Error("first Cancel reported false")
		}
		if tm.Cancel() {
			t.Error("second Cancel reported true")
		}
	})
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.cancelled {
		t.Fatal("timer not marked cancelled")
	}
}

func TestTickerFiresPeriodicallyAndStops(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	var tk *Ticker
	tk = e.Every(1.0, 0, func() {
		times = append(times, e.Now())
		if len(times) == 4 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if len(times) != 4 {
		t.Fatalf("fired %d times, want 4: %v", len(times), times)
	}
	for i, at := range times {
		if math.Abs(at-Time(i+1)) > 1e-12 {
			t.Fatalf("tick %d at %g, want %d", i, at, i+1)
		}
	}
}

func TestTickerJitterStaysInBounds(t *testing.T) {
	// Jitter is a zero-mean phase offset around the k*period grid, so
	// each firing lands within jitter/2 of its anchor and consecutive
	// gaps stay within period +/- jitter.
	e := NewEngine(7)
	var last Time
	n := 0
	tk := e.Every(2.0, 0.5, func() {
		n++
		anchor := 2.0 * Time(n)
		if d := math.Abs(e.Now() - anchor); d > 0.25+1e-9 {
			t.Fatalf("firing %d at %g is %g from anchor %g, want <= 0.25", n, e.Now(), d, anchor)
		}
		gap := e.Now() - last
		if gap < 2.0-0.5-1e-9 || gap > 2.0+0.5+1e-9 {
			t.Fatalf("gap %g outside [1.5, 2.5]", gap)
		}
		last = e.Now()
	})
	// First firing is measured against time zero, which also holds.
	e.RunUntil(50)
	tk.Stop()
	if n < 15 {
		t.Fatalf("only %d ticks in 50s with ~2s period", n)
	}
}

// TestTickerJitterIsZeroMean is the regression test for the biased
// jitter bug: jitter used to be drawn from [0, jitter), stretching the
// mean firing period to period + jitter/2 (a 1s/0.8 monitor sampled
// ~29% slow). The long-run mean period must equal period exactly.
func TestTickerJitterIsZeroMean(t *testing.T) {
	const (
		period  = 1.0
		jitter  = 0.8
		horizon = 10000.0
	)
	e := NewEngine(11)
	n := 0
	var first, last Time
	tk := e.Every(period, jitter, func() {
		if n == 0 {
			first = e.Now()
		}
		last = e.Now()
		n++
	})
	e.RunUntil(horizon)
	tk.Stop()

	// The biased implementation fires ~horizon/(period+jitter/2) ~= 7143
	// times here; the zero-mean one stays anchored at ~10000.
	if n < 9990 || n > 10010 {
		t.Fatalf("fired %d times in %g s with period %g, want ~10000", n, horizon, period)
	}
	mean := (last - first) / Time(n-1)
	if math.Abs(mean-period) > 0.001 {
		t.Fatalf("long-run mean period = %g, want %g", mean, period)
	}
}

// TestRunUntilClockSemantics pins the reconciled contract: RunUntil
// advances the clock to its limit even when the queue empties early,
// while Run leaves the clock at the last executed event.
func TestRunUntilClockSemantics(t *testing.T) {
	e := NewEngine(1)
	e.At(3, func() {})
	if e.RunUntil(10) != 1 {
		t.Fatal("event did not run")
	}
	if e.Now() != 10 {
		t.Fatalf("RunUntil(10) left clock at %g, want 10", e.Now())
	}

	e2 := NewEngine(1)
	e2.At(3, func() {})
	e2.Run()
	if e2.Now() != 3 {
		t.Fatalf("Run left clock at %g, want 3 (last event)", e2.Now())
	}
}

// TestTimerCancelReleasesClosure is the regression test for cancelled
// timers pinning their callbacks: the event may sit in the heap until
// popped, so Cancel must drop the fn reference immediately.
func TestTimerCancelReleasesClosure(t *testing.T) {
	e := NewEngine(1)
	tm := timerAt(e, 1000, func() {})
	if !tm.Cancel() {
		t.Fatal("Cancel reported false for a pending timer")
	}
	if tm.ev.fn != nil {
		t.Fatal("Cancel left the callback closure reachable")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	e.Run() // the cancelled event must pop without firing or panicking
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var out []Time
		var rec func()
		rec = func() {
			out = append(out, e.Now())
			if len(out) < 200 {
				e.Defer(e.Rand().Float64(), rec)
			}
		}
		e.At(0, rec)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// Property: for any batch of events with non-negative offsets, Run
// executes all of them and the observed firing times are sorted.
func TestEngineEventOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine(1)
		var fired []Time
		for _, off := range offsets {
			at := Time(off) / 16.0
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
