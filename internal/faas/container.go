package faas

import (
	"hivemind/internal/cluster"
	"hivemind/internal/sim"
)

// container is a warm or running function container pinned to a server.
// Two containers may share a server but never a logical core (§4.3); the
// core itself is acquired from the server's core resource per execution.
type container struct {
	fn     string
	server *cluster.Server
	memGB  float64
	idle   sim.Timer // the pending keep-alive expiry, while parked
}

// warmPool tracks idle containers per function name, with keep-alive
// expiry (§4.3: "HiveMind does not immediately terminate an idling
// container... between 10 and 30 seconds").
type warmPool struct {
	eng       *sim.Engine
	keepAlive sim.Time
	idle      map[string][]int32 // parked containers per function, oldest first
	all       sim.Slab[container]
	expire    uint8 // record kind of a keep-alive expiry, a = container

	// counters
	hits    int
	misses  int
	expired int
}

func newWarmPool(eng *sim.Engine, keepAlive sim.Time) *warmPool {
	w := &warmPool{eng: eng, keepAlive: keepAlive, idle: make(map[string][]int32)}
	w.expire = eng.Handle(func(c, _ int32) {
		// Keep-alive is one constant, so the container that expires is
		// the one parked longest.
		fn := w.all.At(c).fn
		list := w.idle[fn]
		if list[0] != c {
			panic("faas: keep-alive expired a container other than the oldest")
		}
		w.idle[fn] = list[1:]
		w.expired++
		w.kill(c)
	})
	return w
}

// take returns a warm container for fn, or -1.
func (w *warmPool) take(fn string) int32 {
	list := w.idle[fn]
	if len(list) == 0 {
		w.misses++
		return -1
	}
	c := list[len(list)-1]
	w.idle[fn] = list[:len(list)-1]
	w.all.At(c).idle.Cancel()
	w.hits++
	return c
}

// put parks a container as idle; it self-terminates (releasing memory)
// after the keep-alive window unless taken first. A keep-alive of zero
// terminates immediately (OpenWhisk's default short-lived behaviour).
func (w *warmPool) put(c int32) {
	if w.keepAlive <= 0 {
		w.kill(c)
		return
	}
	ct := w.all.At(c)
	w.idle[ct.fn] = append(w.idle[ct.fn], c)
	ct.idle = w.eng.PostIn(w.keepAlive, w.expire, c, 0)
}

func (w *warmPool) kill(c int32) {
	ct := w.all.At(c)
	ct.server.ReleaseMemGB(ct.memGB)
	w.all.Free(c)
}

// stats returns (hits, misses, expired).
func (w *warmPool) stats() (int, int, int) { return w.hits, w.misses, w.expired }
