package sim

import (
	"math/rand"
	"testing"
)

// TestPurgeProperty mixes Post, At, re-armed timers and Cancel under
// seeded RNGs. Purging cancelled events may change only the heap's
// size: events run in (at, seq) order, every live event runs once and
// no cancelled one runs, and after every step the heap holds at most
// 2 × live + 64 events.
func TestPurgeProperty(t *testing.T) {
	purges := 0
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		var (
			at        []Time // per event id, in scheduling (seq) order
			cancelled []bool
			ran       []int
			tms       []*Timer
			order     []int32 // ids as they ran
			live      int
			kind      uint8
		)
		check := func() {
			if n := len(e.events); n > 2*live+64 {
				t.Fatalf("seed %d: heap holds %d events for %d live", seed, n, live)
			}
		}
		schedule := func(when Time) {
			id := int32(len(at))
			at, cancelled, ran = append(at, when), append(cancelled, false), append(ran, 0)
			if rng.Intn(2) == 0 {
				tm := e.Post(when, kind, id, 0)
				tms = append(tms, &tm)
			} else {
				tms = append(tms, timerAt(e, when, func() { e.Fire(kind, id, 0) }))
			}
			live++
			check()
		}
		cancel := func(id int) {
			dead := e.dead
			if tms[id].Cancel() {
				if e.dead < dead {
					purges++
				}
				if ran[id] > 0 {
					t.Fatalf("seed %d: Cancel reported true for event %d, which ran", seed, id)
				}
				cancelled[id] = true
				live--
			}
			check()
		}
		kind = e.Handle(func(id, _ int32) {
			if len(order)%50 == 0 { // the engine's count of dead events is exact
				dead := 0
				for _, ev := range e.events {
					if ev.cancel {
						dead++
					}
				}
				if dead != e.dead {
					t.Fatalf("seed %d: %d cancelled events in the heap, engine counts %d", seed, dead, e.dead)
				}
			}
			order = append(order, id)
			ran[id]++
			live--
			switch r := rng.Intn(10); {
			case r < 3: // a near event
				schedule(e.Now() + rng.Float64()*10)
			case r < 6: // re-arm a far deadline, as a keep-alive does
				cancel(rng.Intn(len(tms)))
				schedule(e.Now() + 1000 + rng.Float64())
			case r < 8:
				cancel(rng.Intn(len(tms)))
			}
		})
		for range 2000 {
			schedule(rng.Float64() * 10)
		}
		for range 1500 {
			cancel(rng.Intn(len(tms)))
		}
		e.Run()
		for id := range at {
			if want := map[bool]int{true: 0, false: 1}[cancelled[id]]; ran[id] != want {
				t.Fatalf("seed %d: event %d (cancelled %v) ran %d times", seed, id, cancelled[id], ran[id])
			}
		}
		for i := 1; i < len(order); i++ {
			p, q := order[i-1], order[i]
			if at[p] > at[q] || at[p] == at[q] && p > q {
				t.Fatalf("seed %d: event %d (at %g) ran before %d (at %g)", seed, p, at[p], q, at[q])
			}
		}
		if live != 0 || len(e.events) != 0 {
			t.Fatalf("seed %d: %d live, %d in the heap after Run", seed, live, len(e.events))
		}
	}
	if purges < 20 {
		t.Fatalf("%d purges in 20 seeds: the property was not exercised", purges)
	}
}

// TestPurgeBoundsFarRearms re-arms one far deadline 10⁵ times beside
// ten live events: without the purge every re-arm would leave a dead
// event in the heap until the deadline.
func TestPurgeBoundsFarRearms(t *testing.T) {
	e := NewEngine(1)
	fired := map[int32]int{}
	kind := e.Handle(func(a, _ int32) { fired[a]++ })
	for i := range 10 {
		e.Post(Time(i), kind, 0, 0)
	}
	var tm Timer
	for range 100000 {
		tm.Cancel()
		tm = e.Post(1e6, kind, 1, 0)
		if n, live := len(e.events), 11; n > 2*live+64 {
			t.Fatalf("heap holds %d events for %d live", n, live)
		}
	}
	e.Run()
	if fired[0] != 10 || fired[1] != 1 {
		t.Fatalf("fired %v, want the ten events and the last re-arm", fired)
	}
}

// TestTimerHeldAcrossPurge: a purge recycles the cancelled events, so a
// Timer of one of them must stay inert when the struct is reused, while
// a live Timer held across the purge still cancels its event.
func TestTimerHeldAcrossPurge(t *testing.T) {
	e := NewEngine(1)
	fired := map[int32]int{}
	kind := e.Handle(func(a, _ int32) { fired[a]++ })
	stale := e.Post(5, kind, -1, 0)
	held := e.Post(6, kind, -2, 0)
	stale.Cancel()
	// 64 more dead events make 65 against 1 live: the 65th purges.
	for range 64 {
		tm := e.Post(100, kind, -3, 0)
		tm.Cancel()
	}
	if len(e.events) != 1 {
		t.Fatalf("heap holds %d events after the purge, want 1", len(e.events))
	}
	for i := range int32(200) {
		e.Post(Time(i%10), kind, i, 0) // reuses the purged structs
	}
	if stale.Cancel() {
		t.Fatal("a Timer held across the purge cancelled a recycled event")
	}
	if !held.Cancel() {
		t.Fatal("a live Timer held across the purge lost its event")
	}
	e.Run()
	if fired[-1]+fired[-2]+fired[-3] != 0 {
		t.Fatalf("cancelled events ran: %v", fired)
	}
	for i := range int32(200) {
		if fired[i] != 1 {
			t.Fatalf("event %d ran %d times, want 1", i, fired[i])
		}
	}
}
