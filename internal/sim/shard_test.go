package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestShardZeroLookaheadRejected: a non-positive lookahead cannot make
// conservative windows safe, so NewSharded rejects it with the typed
// error.
func TestShardZeroLookaheadRejected(t *testing.T) {
	for _, la := range []Time{0, -1} {
		_, err := NewSharded(1, 4, la, 2)
		if err == nil {
			t.Fatalf("lookahead %g: expected error", la)
		}
		var le *LookaheadError
		if !errors.As(err, &le) {
			t.Fatalf("lookahead %g: error %v is not a *LookaheadError", la, err)
		}
		if le.LookaheadS != la {
			t.Fatalf("error carries lookahead %g, want %g", le.LookaheadS, la)
		}
	}
	if _, err := NewSharded(1, 0, 1, 2); err == nil {
		t.Fatal("zero cells: expected error")
	}
}

// TestShardSeedsAreDistinct: the splitmix64 derivation must give each
// cell its own stream, stable across runs.
func TestShardSeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for cell := 0; cell < 256; cell++ {
		s := SeedFor(42, cell)
		if seen[s] {
			t.Fatalf("seed collision at cell %d", cell)
		}
		seen[s] = true
		if s != SeedFor(42, cell) {
			t.Fatalf("SeedFor not deterministic at cell %d", cell)
		}
	}
	if SeedFor(42, 0) == SeedFor(43, 0) {
		t.Fatal("root seed does not perturb cell streams")
	}
}

// TestShardEmptyCellNeverStalls: cells with no events contribute
// nothing to the window minimum and simply follow the clock.
func TestShardEmptyCellNeverStalls(t *testing.T) {
	se, err := NewSharded(1, 4, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	// Only cell 0 has any events; cells 1-3 stay empty throughout.
	var tick func()
	tick = func() {
		fired++
		if fired < 100 {
			se.Cell(0).Engine().Defer(0.05, tick)
		}
	}
	se.Cell(0).Engine().At(0, tick)
	se.Run(10)
	if fired != 100 {
		t.Fatalf("fired %d events, want 100", fired)
	}
	for i := 0; i < se.Cells(); i++ {
		if now := se.Cell(i).Engine().Now(); now != 10 {
			t.Fatalf("cell %d clock %g, want 10", i, now)
		}
	}
}

// TestShardBoundaryExactDelivery: a cross-cell event stamped exactly on
// the window boundary (send time + lookahead, the tightest legal stamp)
// must execute at its own timestamp, after everything earlier in the
// destination and before everything later.
func TestShardBoundaryExactDelivery(t *testing.T) {
	const lookahead = 0.5
	se, err := NewSharded(1, 2, lookahead, 2)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	c0, c1 := se.Cell(0), se.Cell(1)
	x := se.Handle(func(c *Cell) Handler {
		return func(int32, int32) {
			if now := c.Engine().Now(); c != c1 || now != 1.5 {
				t.Errorf("boundary delivery ran on cell %d at %g, want cell 1 at 1.5", c.ID(), now)
			}
			order = append(order, "x@1.5")
		}
	})
	c1.Engine().At(1.2, func() { order = append(order, "c1@1.2") })
	c1.Engine().At(1.8, func() { order = append(order, "c1@1.8") })
	c0.Engine().At(1.0, func() {
		// Stamped exactly at now+lookahead: the earliest legal delivery.
		c0.Post(1, c0.Engine().Now()+lookahead, x, 0, 0)
	})
	se.Run(5)
	want := []string{"c1@1.2", "x@1.5", "c1@1.8"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestShardLookaheadViolationPanics: stamping a cross-cell send closer
// than the lookahead is a causality bug and must panic like scheduling
// in the past does.
func TestShardLookaheadViolationPanics(t *testing.T) {
	se, err := NewSharded(1, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c0 := se.Cell(0)
	nop := se.Handle(func(*Cell) Handler { return func(int32, int32) {} })
	c0.Engine().At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for sub-lookahead cross-cell send")
			}
		}()
		c0.Post(1, 1.2, nop, 0, 0)
	})
	se.Run(2)
}

// shardTrace runs a randomized cross-cell workload and records every
// event execution as (cell, time, tag) per cell plus each cell's final
// RNG draw — the full observable behaviour of the run.
func shardTrace(t *testing.T, workers int) ([][]string, []float64) {
	t.Helper()
	const cells = 8
	se, err := NewSharded(7, cells, 0.02, workers)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([][]string, cells)
	var arm func(c *Cell, depth int)
	ping := se.Handle(func(c *Cell) Handler { return func(depth, _ int32) { arm(c, int(depth)) } })
	arm = func(c *Cell, depth int) {
		eng := c.Engine()
		trace[c.id] = append(trace[c.id], fmt.Sprintf("%d@%.6f", c.id, eng.Now()))
		if depth >= 11 {
			return
		}
		// Local follow-up at an RNG-drawn delay, plus a cross-cell ping
		// to an RNG-chosen neighbour at the minimum legal distance.
		d := eng.Rand().Float64() * 0.05
		eng.Defer(d, func() { arm(c, depth+1) })
		to := eng.Rand().Intn(cells)
		if to != c.id {
			at := eng.Now() + 0.02 + eng.Rand().Float64()*0.01
			c.Post(to, at, ping, int32(depth+1), 0)
		}
	}
	for i := 0; i < cells; i++ {
		c := se.Cell(i)
		c.Engine().At(float64(i)*0.001, func() { arm(c, 0) })
	}
	se.Run(3)
	finals := make([]float64, cells)
	for i := range finals {
		finals[i] = se.Cell(i).Engine().Rand().Float64()
	}
	return trace, finals
}

// TestShardParityAcrossWorkerCounts: the same sharded run must produce
// identical event traces and identical per-cell RNG states no matter
// how many workers advance the cells — the property the shard-parity
// CI lane asserts end to end.
func TestShardParityAcrossWorkerCounts(t *testing.T) {
	baseTrace, baseRng := shardTrace(t, 1)
	total := 0
	for _, tr := range baseTrace {
		total += len(tr)
	}
	if total < 100 {
		t.Fatalf("workload too small to be meaningful: %d events", total)
	}
	for _, workers := range []int{2, 4, 8} {
		tr, rng := shardTrace(t, workers)
		if !reflect.DeepEqual(tr, baseTrace) {
			t.Fatalf("workers=%d: event trace diverged from serial run", workers)
		}
		if !reflect.DeepEqual(rng, baseRng) {
			t.Fatalf("workers=%d: RNG streams diverged from serial run", workers)
		}
	}
}

// TestShardRepeatedRunWindows: Run can be called in fixed steps (the
// scenario pattern) and clocks land exactly on each boundary. Each
// cell counts its own events: two workers run the cells concurrently.
func TestShardRepeatedRunWindows(t *testing.T) {
	se, err := NewSharded(3, 4, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var counts [4]int
	count := func() (n int) {
		for _, c := range counts {
			n += c
		}
		return n
	}
	for i := 0; i < 4; i++ {
		c := se.Cell(i)
		var loop func()
		loop = func() {
			counts[i]++
			c.Engine().Defer(0.3, loop)
		}
		c.Engine().At(0.1, loop)
	}
	se.Run(1)
	if now := se.Cell(0).Engine().Now(); now != 1 {
		t.Fatalf("after Run(1): now %g", now)
	}
	mid := count()
	se.Run(2)
	if now := se.Cell(0).Engine().Now(); now != 2 {
		t.Fatalf("after Run(2): now %g", now)
	}
	if count() <= mid {
		t.Fatal("second Run executed nothing")
	}
	if se.Windows() == 0 || se.Steps() == 0 {
		t.Fatal("window/step accounting empty")
	}
}

// TestShardCrossMessageCounts: cross-cell sends are counted and
// same-cell sends are ordinary local events.
func TestShardCrossMessageCounts(t *testing.T) {
	se, err := NewSharded(1, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	c0 := se.Cell(0)
	count := se.Handle(func(*Cell) Handler { return func(int32, int32) { ran++ } })
	c0.Engine().At(0.5, func() {
		c0.Post(1, c0.Engine().Now()+0.1, count, 0, 0)
		c0.Post(0, c0.Engine().Now()+0.001, count, 0, 0) // local: no lookahead bound
	})
	se.Run(1)
	if ran != 2 {
		t.Fatalf("ran %d deliveries, want 2", ran)
	}
	if se.CrossMessages() != 1 {
		t.Fatalf("counted %d cross messages, want 1", se.CrossMessages())
	}
}
