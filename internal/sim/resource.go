package sim

// Resource is a multi-server FIFO queue: up to Capacity concurrent
// holders, further requests wait in arrival order. It models CPU cores,
// container slots, network ports — anything with finite parallelism.
//
// Resource tracks queueing statistics (waiting time, utilization,
// time-averaged queue length) which the experiment drivers report.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	queue    []*request
	freeReqs []*request // recycled request structs

	// statistics
	totalWait    Time
	grants       uint64
	busyIntegral Time // ∫ busy dt
	qlenIntegral Time // ∫ len(queue) dt
	lastStamp    Time
	maxQueue     int
}

type request struct {
	enqueued Time
	fn       func()
}

// NewResource creates a resource with the given concurrent capacity.
// Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity, lastStamp: eng.Now()}
}

// InUse returns how many units are currently held.
func (r *Resource) InUse() int { return r.busy }

// QueueLen returns how many requests are waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

func (r *Resource) stamp() {
	now := r.eng.Now()
	dt := now - r.lastStamp
	if dt > 0 {
		r.busyIntegral += Time(r.busy) * dt
		r.qlenIntegral += Time(len(r.queue)) * dt
		r.lastStamp = now
	}
}

// Grab requests one unit and calls fn when it is granted (possibly
// synchronously, if a unit is free). The hot acquire/release cycle is
// allocation-free: an immediate grant touches no request struct at
// all, and a queued request comes from (and returns to) the resource's
// free list.
func (r *Resource) Grab(fn func()) {
	r.stamp()
	if len(r.queue) == 0 && r.busy+1 <= r.capacity {
		r.busy++
		r.grants++
		fn()
		return
	}
	var req *request
	if n := len(r.freeReqs); n > 0 {
		req = r.freeReqs[n-1]
		r.freeReqs[n-1] = nil
		r.freeReqs = r.freeReqs[:n-1]
	} else {
		req = new(request)
	}
	*req = request{enqueued: r.eng.Now(), fn: fn}
	r.queue = append(r.queue, req)
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
}

// Release returns one unit and dispatches queued requests that now fit.
func (r *Resource) Release() {
	r.stamp()
	r.busy--
	if r.busy < 0 {
		panic("sim: resource released more than acquired")
	}
	for len(r.queue) > 0 && r.busy < r.capacity {
		head := r.queue[0]
		r.queue = r.queue[1:]
		r.busy++
		r.grants++
		r.totalWait += r.eng.Now() - head.enqueued
		fn := head.fn
		head.fn = nil
		r.freeReqs = append(r.freeReqs, head)
		fn()
	}
}

// Use acquires one unit, holds it for service seconds, releases it, and
// then calls done (which may be nil). It is the common "queue at a
// station" primitive.
func (r *Resource) Use(service Time, done func()) {
	r.Grab(func() {
		r.eng.Defer(service, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

// Stats summarises a resource's queueing behaviour so far.
type ResourceStats struct {
	Grants       uint64  // total successful acquisitions
	MeanWait     Time    // average time spent queued before grant
	Utilization  float64 // time-averaged fraction of capacity in use
	MeanQueueLen float64 // time-averaged queue length
	MaxQueueLen  int
}

// Stats returns queueing statistics over [0, now).
func (r *Resource) Stats() ResourceStats {
	r.stamp()
	elapsed := r.eng.Now()
	s := ResourceStats{Grants: r.grants, MaxQueueLen: r.maxQueue}
	if r.grants > 0 {
		s.MeanWait = r.totalWait / Time(r.grants)
	}
	if elapsed > 0 {
		s.Utilization = r.busyIntegral / (elapsed * Time(r.capacity))
		s.MeanQueueLen = r.qlenIntegral / elapsed
	}
	return s
}
