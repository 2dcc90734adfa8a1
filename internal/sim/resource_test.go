package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResourceGrantsImmediatelyWhenFree(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	granted := 0
	r.Grab(func() { granted++ })
	r.Grab(func() { granted++ })
	if granted != 2 || r.InUse() != 2 {
		t.Fatalf("granted=%d inuse=%d", granted, r.InUse())
	}
}

func TestResourceQueuesFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Grab(func() {
			order = append(order, i)
			e.After(1, r.Release)
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
	var done1, done2 Time
	r.Use(2.0, func() { done1 = e.Now() })
	r.Use(3.0, func() { done2 = e.Now() })
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
	// Hold both units for 5s out of a 10s window: utilization = 0.5.
	r.Use(5, nil)
	r.Use(5, nil)
	e.RunUntil(10)
	st := r.Stats()
	if math.Abs(st.Utilization-0.5) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.5", st.Utilization)
	}
	if st.Grants != 2 {
		t.Fatalf("grants = %d, want 2", st.Grants)
	}
}

func TestResourceMeanWaitStats(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	r.Use(4, nil)                     // waits 0
	r.Use(4, nil)                     // waits 4
	e.At(2, func() { r.Use(4, nil) }) // enqueued at 2, granted at 8: waits 6
	e.Run()
	st := r.Stats()
	want := (0.0 + 4.0 + 6.0) / 3.0
	if math.Abs(st.MeanWait-want) > 1e-9 {
		t.Fatalf("mean wait = %g, want %g", st.MeanWait, want)
	}
	if st.MaxQueueLen != 2 {
		t.Fatalf("max queue = %d, want 2", st.MaxQueueLen)
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
		completions := 0
		for i := 0; i < n; i++ {
			r.Use(svc, func() { completions++ })
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
		ok := true
		for i := 0; i < jobs; i++ {
			e.At(e.Rand().Float64()*10, func() {
				r.Use(e.Rand().Float64()+0.1, func() {
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
