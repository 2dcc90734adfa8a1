package cluster

import (
	"testing"

	"hivemind/internal/sim"
)

// totalCores is the number of usable (non-network-stack) cores.
func totalCores(c *Cluster) int {
	n := 0
	for _, s := range c.servers {
		n += s.usableCores
	}
	return n
}

func TestNewClusterSizing(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, DefaultConfig())
	if len(c.Servers()) != 12 {
		t.Fatalf("servers = %d", len(c.Servers()))
	}
	// 40 cores - 4 network-stack cores = 36 usable per server.
	if totalCores(c) != 12*36 {
		t.Fatalf("total cores = %d", totalCores(c))
	}
	if c.Servers()[0].FreeMemGB() != 192 {
		t.Fatalf("free mem = %g", c.Servers()[0].FreeMemGB())
	}
}

func TestAccelFreesNetworkCores(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.NetStackCoresPerServer = 0 // FPGA offload active
	c := New(e, cfg)
	if totalCores(c) != 12*40 {
		t.Fatalf("total cores with accel = %d", totalCores(c))
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

// use holds one unit of r for service seconds, then calls done (which
// may be nil).
func use(e *sim.Engine, r *sim.Resource, service float64, done func()) {
	r.Grab(e.Handle(func(_, _ int32) {
		e.Defer(service, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	}), 0, 0)
}

func TestLeastLoadedPrefersFreeCores(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, Config{Servers: 3, CoresPerServer: 4, MemGBPerServer: 8})
	// Load server 0 fully, server 1 partially.
	for i := 0; i < 4; i++ {
		use(e, c.Servers()[0].Cores(), 100, nil)
	}
	use(e, c.Servers()[1].Cores(), 100, nil)
	if got := c.LeastLoaded(); got.ID != 2 {
		t.Fatalf("least loaded = %d, want 2", got.ID)
	}
}

func TestLeastLoadedSkipsProbation(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, Config{Servers: 2, CoresPerServer: 4, MemGBPerServer: 8})
	c.Servers()[0].Probation(60)
	if got := c.LeastLoaded(); got.ID != 1 {
		t.Fatalf("picked probated server %d", got.ID)
	}
	// All probated: fall back rather than fail.
	c.Servers()[1].Probation(60)
	if got := c.LeastLoaded(); got == nil {
		t.Fatal("no server returned when all on probation")
	}
	// Probation expires with time.
	e.RunUntil(61)
	if c.Servers()[0].OnProbation() {
		t.Fatal("probation did not expire")
	}
}

func TestMemoryReservation(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, Config{Servers: 1, CoresPerServer: 2, MemGBPerServer: 10})
	s := c.Servers()[0]
	if !s.ReserveMemGB(6) {
		t.Fatal("first reservation failed")
	}
	if s.ReserveMemGB(6) {
		t.Fatal("over-reservation succeeded")
	}
	s.ReleaseMemGB(6)
	if s.FreeMemGB() != 10 {
		t.Fatalf("free mem = %g", s.FreeMemGB())
	}
}

func TestMemoryOverReleasePanics(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, Config{Servers: 1, CoresPerServer: 2, MemGBPerServer: 10})
	defer func() {
		if recover() == nil {
			t.Error("no panic on over-release")
		}
	}()
	c.Servers()[0].ReleaseMemGB(1)
}

func TestUtilizationAndMean(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, Config{Servers: 2, CoresPerServer: 4, MemGBPerServer: 8})
	use(e, c.Servers()[0].Cores(), 10, nil)
	use(e, c.Servers()[0].Cores(), 10, nil)
	if got := c.Servers()[0].Utilization(); got != 0.5 {
		t.Fatalf("utilization = %g", got)
	}
	if got := c.Servers()[1].Utilization(); got != 0 {
		t.Fatalf("idle server utilization = %g", got)
	}
}

func TestReservedPoolQueues(t *testing.T) {
	e := sim.NewEngine(1)
	p := NewReservedPool(e, 2)
	if p.Size() != 2 {
		t.Fatalf("size = %d", p.Size())
	}
	done := 0
	for i := 0; i < 5; i++ {
		use(e, p.Cores(), 1, func() { done++ })
	}
	if p.Cores().InUse() != 2 {
		t.Fatalf("in use = %d, want 2 (three jobs queued)", p.Cores().InUse())
	}
	e.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	// 5 jobs × 1s on 2 cores: makespan 3s.
	if e.Now() != 3 {
		t.Fatalf("makespan = %g", e.Now())
	}
}
