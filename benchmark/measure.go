package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// recorder collects what the generator saw during the timed window.
// Client goroutines keep private recorders and merge them at the end,
// so recording an op takes no lock.
type recorder struct {
	lat     []int64 // latency of each successful op, ns (open loop: from the due time)
	service []int64 // open loop only: latency from the actual send, ns
	late    []int64 // open loop only: actual send − due time, ns
	failed  int64
	err     error // first failure, for the report
}

func (r *recorder) ok(lat time.Duration) { r.lat = append(r.lat, int64(lat)) }

func (r *recorder) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.service = append(r.service, o.service...)
	r.late = append(r.late, o.late...)
	r.failed += o.failed
	if r.err == nil {
		r.err = o.err
	}
}

// clients runs fn on n goroutines, each with its own recorder, waits
// for all of them and returns the merged record.
func clients(n int, fn func(client int, rec *recorder)) *recorder {
	recs := make([]recorder, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, &recs[c])
		}(c)
	}
	wg.Wait()
	total := &recorder{}
	for i := range recs {
		total.merge(&recs[i])
	}
	return total
}

// usage is a reading of the process-wide cost counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

func readUsage() usage {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// timeOps runs fn n times per batch and returns the median batch's
// ns per call and the allocations per call over all batches. The
// layer drives use a fixed n, so two commits do identical work.
func timeOps(batches, n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	per := make([]float64, batches)
	i := 0
	for b := range per {
		start := time.Now()
		for k := 0; k < n; k++ {
			fn(i)
			i++
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(per), float64(ms.Mallocs-before) / float64(batches*n)
}

// timeRuns runs fn reps times and returns the median duration.
func timeRuns(reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}
