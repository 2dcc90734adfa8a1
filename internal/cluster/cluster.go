// Package cluster models the backend cloud: the paper's testbed is 12
// two-socket, 40-core Xeon servers with 128–256 GB RAM (§2.1). Servers
// expose cores as queued resources; containers pin to cores ("two
// containers can share a physical server, but never share a logical
// core", §4.3); memory is tracked per server; and servers can be put on
// probation when the straggler mitigation flags them (§4.6).
package cluster

import (
	"fmt"

	"hivemind/internal/sim"
)

// Config sizes the cluster.
type Config struct {
	Servers        int
	CoresPerServer int
	MemGBPerServer float64
	// NetStackCoresPerServer cores are reserved for software packet
	// processing when RPC acceleration is off; the FPGA offload frees
	// them for function execution (§4.5: "frees up a lot of CPU
	// resources, which can be used for function execution").
	NetStackCoresPerServer int
}

// DefaultConfig returns the paper's testbed.
func DefaultConfig() Config {
	return Config{Servers: 12, CoresPerServer: 40, MemGBPerServer: 192, NetStackCoresPerServer: 4}
}

// Cluster is a set of servers.
type Cluster struct {
	servers []*Server
}

// Server is one machine: a multi-core queue plus memory accounting.
type Server struct {
	ID    int
	cores *sim.Resource
	eng   *sim.Engine

	memCapGB  float64
	memUsedGB float64

	probationUntil sim.Time
	usableCores    int
}

// New builds a cluster.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.Servers <= 0 || cfg.CoresPerServer <= 0 {
		panic("cluster: invalid config")
	}
	c := &Cluster{}
	for i := 0; i < cfg.Servers; i++ {
		usable := cfg.CoresPerServer - cfg.NetStackCoresPerServer
		if usable < 1 {
			usable = 1
		}
		c.servers = append(c.servers, &Server{
			ID:          i,
			eng:         eng,
			cores:       sim.NewResource(eng, usable),
			memCapGB:    cfg.MemGBPerServer,
			usableCores: usable,
		})
	}
	return c
}

// Servers returns all servers.
func (c *Cluster) Servers() []*Server { return c.servers }

// LeastLoaded returns the eligible server with the most free cores
// (ties: lowest ID), skipping servers on probation. If every server is
// on probation it falls back to the globally least-loaded one.
func (c *Cluster) LeastLoaded() *Server {
	pick := func(skipProbation bool) *Server {
		var best *Server
		for _, s := range c.servers {
			if skipProbation && s.OnProbation() {
				continue
			}
			if best == nil || s.FreeCores() > best.FreeCores() {
				best = s
			}
		}
		return best
	}
	if s := pick(true); s != nil {
		return s
	}
	return pick(false)
}

// Cores exposes the server's core resource for direct queueing.
func (s *Server) Cores() *sim.Resource { return s.cores }

// FreeCores returns currently idle usable cores.
func (s *Server) FreeCores() int { return s.usableCores - s.cores.InUse() }

// Utilization returns the instantaneous busy fraction.
func (s *Server) Utilization() float64 {
	return float64(s.cores.InUse()) / float64(s.usableCores)
}

// ReserveMemGB claims memory; reports false without side effects if the
// server lacks capacity.
func (s *Server) ReserveMemGB(gb float64) bool {
	if s.memUsedGB+gb > s.memCapGB {
		return false
	}
	s.memUsedGB += gb
	return true
}

// ReleaseMemGB returns memory.
func (s *Server) ReleaseMemGB(gb float64) {
	s.memUsedGB -= gb
	if s.memUsedGB < -1e-9 {
		panic(fmt.Sprintf("cluster: server %d memory over-released", s.ID))
	}
}

// FreeMemGB returns unreserved memory.
func (s *Server) FreeMemGB() float64 { return s.memCapGB - s.memUsedGB }

// Probation marks the server ineligible for new placements until now+d
// (straggler mitigation: "that server is put on probation for a few
// minutes until its behavior recovers").
func (s *Server) Probation(d sim.Time) { s.probationUntil = s.eng.Now() + d }

// OnProbation reports whether the server is currently on probation.
func (s *Server) OnProbation() bool { return s.eng.Now() < s.probationUntil }

// ReservedPool is a fixed-size core allocation carved out of the
// cluster — the IaaS baseline ("statically provisioned cloud resources
// of equal cost"). Tasks queue FIFO on the pool.
type ReservedPool struct {
	cores *sim.Resource
	size  int
}

// NewReservedPool reserves n cores.
func NewReservedPool(eng *sim.Engine, n int) *ReservedPool {
	return &ReservedPool{cores: sim.NewResource(eng, n), size: n}
}

// Size returns the pool's core count.
func (p *ReservedPool) Size() int { return p.size }

// Cores exposes the pool's queue.
func (p *ReservedPool) Cores() *sim.Resource { return p.cores }
