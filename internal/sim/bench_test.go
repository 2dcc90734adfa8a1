package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw event scheduling and
// dispatch — the floor under every simulation in the repository.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			e.Defer(0.001, next)
		}
	}
	b.ResetTimer()
	e.At(0, next)
	e.Run()
}

// BenchmarkEngineHeapPressure schedules a deep out-of-order backlog.
func BenchmarkEngineHeapPressure(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.At(float64((i*7919)%100000), func() {})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkRunUntil measures the schedule-fire hot loop: one event in
// flight at a time, each firing scheduling its successor — the steady
// state of every queueing model in the repository. Allocation rate here
// bounds the GC pressure of the whole evaluation sweep.
func BenchmarkRunUntil(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			e.Defer(0.001, next)
		}
	}
	e.At(0, next)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Infinity)
}

// BenchmarkResourceQueueing pushes jobs through a contended multi-core
// resource.
func BenchmarkResourceQueueing(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, 8)
	var grant, done uint8
	grant = e.Handle(func(_, _ int32) { e.PostIn(0.01, done, 0, 0) })
	done = e.Handle(func(_, _ int32) { r.Release() })
	for i := 0; i < b.N; i++ {
		r.Grab(grant, 0, 0)
	}
	b.ResetTimer()
	e.Run()
}
