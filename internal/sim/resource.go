package sim

// Resource is a multi-server FIFO queue: up to Capacity concurrent
// holders, further requests wait in arrival order. It models CPU cores,
// container slots, network ports — anything with finite parallelism.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	queue    []grant // records of waiting requests, in arrival order
	head     int     // queue[:head] are granted
}

// grant is a waiting request: the record its grant runs.
type grant struct {
	kind uint8
	a, b int32
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

// Grab requests one unit and runs record (kind, a, b) when it is
// granted: inline, if a unit is free, or else inline in the Release
// that frees one. A queued request is only its record in the FIFO
// slice, and the slice's array is reused, so the acquire/release cycle
// allocates nothing beyond the queue's growth.
func (r *Resource) Grab(kind uint8, a, b int32) {
	if len(r.queue) == 0 && r.busy+1 <= r.capacity {
		r.busy++
		r.eng.Fire(kind, a, b)
		return
	}
	r.queue = append(r.queue, grant{kind, a, b})
}

// Release returns one unit and grants queued requests that now fit.
func (r *Resource) Release() {
	r.busy--
	if r.busy < 0 {
		panic("sim: resource released more than acquired")
	}
	for r.head < len(r.queue) && r.busy < r.capacity {
		g := r.queue[r.head]
		if r.head++; r.head == len(r.queue) || r.head >= 64 && 2*r.head >= len(r.queue) {
			r.queue, r.head = r.queue[:copy(r.queue, r.queue[r.head:])], 0
		}
		r.busy++
		r.eng.Fire(g.kind, g.a, g.b)
	}
}

// Slab holds the state that records name by index: New hands out a
// zeroed slot and its index, At finds it again, Free recycles it.
// Slots are carved from chunks, so a pointer stays valid for the slot's
// life even while handlers it calls grow the slab.
type Slab[T any] struct {
	slots []*T
	free  []int32
	chunk []T
}

// New returns a zeroed slot and its index.
func (s *Slab[T]) New() (int32, *T) {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i, s.slots[i]
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]T, min(max(len(s.slots), 16), 1024))
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.slots = append(s.slots, p)
	return int32(len(s.slots) - 1), p
}

// At returns slot i.
func (s *Slab[T]) At(i int32) *T { return s.slots[i] }

// Free zeroes slot i, dropping what it references, and recycles it.
func (s *Slab[T]) Free(i int32) {
	var zero T
	*s.slots[i] = zero
	s.free = append(s.free, i)
}
