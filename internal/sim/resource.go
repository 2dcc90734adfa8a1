package sim

// Resource is a multi-server FIFO queue: up to Capacity concurrent
// holders, further requests wait in arrival order. It models CPU cores,
// container slots, network ports — anything with finite parallelism.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	queue    []func() // callbacks of waiting requests, in arrival order
}

// NewResource creates a resource with the given concurrent capacity.
// Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// InUse returns how many units are currently held.
func (r *Resource) InUse() int { return r.busy }

// Grab requests one unit and calls fn when it is granted (possibly
// synchronously, if a unit is free). A queued request is only its
// callback in the FIFO slice, so the acquire/release cycle allocates
// nothing beyond the slice's growth.
func (r *Resource) Grab(fn func()) {
	if len(r.queue) == 0 && r.busy+1 <= r.capacity {
		r.busy++
		fn()
		return
	}
	r.queue = append(r.queue, fn)
}

// Release returns one unit and dispatches queued requests that now fit.
func (r *Resource) Release() {
	r.busy--
	if r.busy < 0 {
		panic("sim: resource released more than acquired")
	}
	for len(r.queue) > 0 && r.busy < r.capacity {
		fn := r.queue[0]
		r.queue[0] = nil
		r.queue = r.queue[1:]
		r.busy++
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
