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
	// idle is the keep-alive expiry, bound once on the first put and
	// re-armed allocation-free on every park thereafter.
	idle *sim.Alarm
	dead bool
}

// warmPool tracks idle containers per function name, with keep-alive
// expiry (§4.3: "HiveMind does not immediately terminate an idling
// container... between 10 and 30 seconds").
type warmPool struct {
	eng       *sim.Engine
	keepAlive sim.Time
	idle      map[string][]*container

	// counters
	hits    int
	misses  int
	expired int
}

func newWarmPool(eng *sim.Engine, keepAlive sim.Time) *warmPool {
	return &warmPool{eng: eng, keepAlive: keepAlive, idle: make(map[string][]*container)}
}

// take returns a warm container for fn, or nil.
func (w *warmPool) take(fn string) *container {
	list := w.idle[fn]
	for len(list) > 0 {
		c := list[len(list)-1]
		list = list[:len(list)-1]
		if c.dead {
			continue
		}
		if c.idle != nil {
			c.idle.Stop()
		}
		w.idle[fn] = list
		w.hits++
		return c
	}
	w.idle[fn] = list
	w.misses++
	return nil
}

// put parks a container as idle; it self-terminates (releasing memory)
// after the keep-alive window unless taken first. A keep-alive of zero
// terminates immediately (OpenWhisk's default short-lived behaviour).
func (w *warmPool) put(c *container) {
	if c.dead {
		return
	}
	if w.keepAlive <= 0 {
		w.kill(c)
		return
	}
	w.idle[c.fn] = append(w.idle[c.fn], c)
	if c.idle == nil {
		c.idle = w.eng.NewAlarm(func() {
			w.expired++
			w.kill(c)
		})
	}
	c.idle.Set(w.keepAlive)
}

func (w *warmPool) kill(c *container) {
	if c.dead {
		return
	}
	c.dead = true
	c.server.ReleaseMemGB(c.memGB)
}

// stats returns (hits, misses, expired).
func (w *warmPool) stats() (int, int, int) { return w.hits, w.misses, w.expired }
