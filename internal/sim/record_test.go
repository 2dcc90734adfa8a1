package sim

import (
	"slices"
	"testing"
)

// TestRunUntilClockNeverRewinds: a limit behind Now() leaves the clock
// where it is, whether or not an event is pending beyond it.
func TestRunUntilClockNeverRewinds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pending bool
	}{
		{"event pending", true},
		{"empty queue", false},
	} {
		e := NewEngine(1)
		if tc.pending {
			e.At(10, func() {})
		}
		for _, step := range []struct{ limit, want Time }{{5, 5}, {3, 5}, {5, 5}, {12, 12}} {
			e.RunUntil(step.limit)
			if e.Now() != step.want {
				t.Fatalf("%s: RunUntil(%g) left the clock at %g, want %g", tc.name, step.limit, e.Now(), step.want)
			}
		}
	}
}

// TestRecordDispatch: records reach their handler with their arguments,
// interleave with closure events in scheduling order at equal times,
// and a cancelled record never runs.
func TestRecordDispatch(t *testing.T) {
	e := NewEngine(1)
	var got []int32
	k1 := e.Handle(func(a, b int32) { got = append(got, a, b) })
	k2 := e.Handle(func(a, _ int32) { got = append(got, -a) })
	if k1 == 0 || k2 == k1 {
		t.Fatalf("kinds %d, %d: want distinct non-zero kinds", k1, k2)
	}
	e.Post(1, k1, 1, 2)
	e.At(1, func() { got = append(got, 0) })
	e.Post(1, k2, 3, 0)
	doomed := e.Post(0.5, k1, 9, 9)
	if !doomed.Cancel() || doomed.Cancel() {
		t.Fatal("a pending record's first Cancel must report true, the second false")
	}
	if e.Run(); !slices.Equal(got, []int32{1, 2, 0, -3}) {
		t.Fatalf("dispatch order %v, want [1 2 0 -3]", got)
	}
	if e.Steps() != 3 {
		t.Fatalf("steps = %d, want 3: a cancelled record is not a step", e.Steps())
	}
}

// TestShardRecordCrossCell: a record posted to another cell runs there,
// after the barrier, with its arguments, under the kind ShardedEngine
// registered on every cell.
func TestShardRecordCrossCell(t *testing.T) {
	se, err := NewSharded(1, 2, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, 2) // one per cell: each is written by its own cell only
	kind := se.Handle(func(c *Cell) Handler {
		return func(a, b int32) { got[c.ID()] = append(got[c.ID()], a, b) }
	})
	c0 := se.Cell(0)
	c0.Engine().At(1, func() {
		c0.Post(1, c0.Engine().Now()+0.01, kind, 4, 5)
		c0.Post(0, c0.Engine().Now(), kind, 6, 7)
	})
	se.Run(2)
	if !slices.Equal(got[0], []int32{6, 7}) || !slices.Equal(got[1], []int32{4, 5}) {
		t.Fatalf("cell deliveries %v, want [[6 7] [4 5]]", got)
	}
	if se.CrossMessages() != 1 {
		t.Fatalf("cross messages = %d, want 1", se.CrossMessages())
	}
}

// TestRecordScheduleDispatchAllocFree: at steady state a record that
// re-posts itself, and one cancelled before it fires, allocate nothing.
func TestRecordScheduleDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := NewEngine(1)
	var kind uint8
	kind = e.Handle(func(a, _ int32) {
		e.Post(e.Now()+0.001, kind, a+1, 0)
		tm := e.Post(e.Now()+0.0005, kind, -1, 0)
		tm.Cancel()
	})
	e.Post(0, kind, 0, 0)
	e.RunUntil(1)
	allocs := testing.AllocsPerRun(2000, func() { e.RunUntil(e.Now() + 0.001) })
	if allocs != 0 {
		t.Fatalf("record schedule-dispatch loop allocates %.2f per event, want 0", allocs)
	}
}
