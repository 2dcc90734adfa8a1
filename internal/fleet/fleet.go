// Package fleet boots the live control plane of §4.6–4.7: controller
// replicas (one primary, hot standbys) on loopback TCP, each fronting a
// runtime.Gateway over one shared store. It is the one place that wires
// a replica to its gateway: the store fence loop, promotion-time orphan
// recovery, the primary-only admission gate, the replicated task table,
// and the watchdog that takes a dead replica's gateway down with it.
package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/trace"
)

// RespawnDelay is every gateway's pause before respawning a chain step.
const RespawnDelay = 20 * time.Millisecond

// Config describes a fleet. The templates are copied per node, and the
// fleet overwrites the per-node fields named on each.
type Config struct {
	Replicas int
	// Seed makes every replica's election-timeout draws deterministic.
	Seed int64
	// Store is the shared store (nil: a fresh in-memory one). Close
	// closes it; Crash abandons it.
	Store *store.DB
	// Monitor receives every replica's and gateway's events (nil: a
	// fresh one). Setup may give a gateway another sink.
	Monitor *controller.Monitor
	// Fault, when set, is every replica's kill switch and wraps replica
	// i's peer link to j with WrapConnPair(PeerName(i), PeerName(j)).
	Fault *chaos.Injector
	// Tracer, when set, traces every replica, gateway and gateway RPC
	// hop, and gives each node a Breakdown.
	Tracer *trace.Live
	// Replica: ID, Replicas, Seed, Fault, InitialTerm, OnPromote and
	// Recover are set per node; zero timings take the defaults.
	Replica controller.ReplicaConfig
	// Runtime: Retries is 0, so the gateway, not the runtime, respawns.
	Runtime runtime.Config
	// Gateway: RespawnDelay, Checkpoints, OnFenced, Admission, Tracker,
	// Tracer and Breakdown are set per node.
	Gateway runtime.GatewayConfig
	// Setup runs once per node before it serves: register functions on
	// the Runtime and expose methods on the Gateway.
	Setup func(*Node)
}

// Node is one controller+gateway "process".
type Node struct {
	ID      int
	Replica *controller.Replica
	Runtime *runtime.Runtime
	Gateway *runtime.Gateway
	// Addr is the gateway's TCP address.
	Addr string
	// Breakdown is the four-stage latency decomposition (nil untraced).
	Breakdown *stats.Breakdown

	recovered atomic.Uint64 // LeaderTerm whose promotion Recover returned
}

// Fleet is a running replica set; Nodes are indexed by replica id.
type Fleet struct {
	Nodes []*Node

	db       *store.DB
	stopOnce sync.Once
}

// PeerName labels replica i for chaos.Injector.PartitionPair.
func PeerName(i int) string { return fmt.Sprintf("ctrl-%d", i) }

// Start builds, serves and starts every node. It does not wait for a
// primary: see Leader.
func Start(cfg Config) (*Fleet, error) {
	n := cfg.Replicas
	if n < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 replica, got %d", n)
	}
	if cfg.Store == nil {
		cfg.Store = store.NewDB()
	}
	if cfg.Monitor == nil {
		cfg.Monitor = controller.NewMonitor()
	}
	// Node i's controller listener is lns[2i], its gateway's lns[2i+1].
	lns := make([]net.Listener, 0, 2*n)
	for len(lns) < 2*n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("fleet: %w", err)
		}
		lns = append(lns, ln)
	}
	f := &Fleet{db: cfg.Store}
	for i := range n {
		f.Nodes = append(f.Nodes, newNode(cfg, i, lns))
	}
	for i, nd := range f.Nodes {
		go nd.Replica.Server().Serve(lns[2*i])
		go nd.Gateway.Server().Serve(lns[2*i+1])
		// A dead replica takes its whole process down: gateway included.
		go func() {
			<-nd.Replica.Done()
			nd.Gateway.Close()
		}()
		nd.Replica.Start()
	}
	return f, nil
}

// newNode builds node i's runtime, replica and gateway and runs Setup.
func newNode(cfg Config, i int, lns []net.Listener) *Node {
	n, db := cfg.Replicas, cfg.Store
	nd := &Node{ID: i, Addr: lns[2*i+1].Addr().String()}
	rcfg := cfg.Runtime
	rcfg.Retries = 0
	nd.Runtime = runtime.New(rcfg, db)

	ccfg := cfg.Replica
	ccfg.ID, ccfg.Replicas, ccfg.Seed = i, n, cfg.Seed
	if cfg.Fault != nil {
		ccfg.Fault = cfg.Fault
	}
	// A fleet restarted over recovered state must resume terms above the
	// persisted fence, and every promotion raises it before Recover runs.
	ccfg.InitialTerm = db.Fence()
	ccfg.OnPromote = func(term uint64) { db.RaiseFence(term) }
	ccfg.Recover = func(ctx context.Context) (int, error) {
		term := nd.Replica.LeaderTerm()
		defer nd.recovered.Store(term)
		return nd.Gateway.Recover(ctx)
	}
	peers := make(map[int]func() (net.Conn, error), n-1)
	for j := range n {
		if j == i {
			continue
		}
		addr := lns[2*j].Addr().String()
		peers[j] = func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil || cfg.Fault == nil {
				return c, err
			}
			return cfg.Fault.WrapConnPair(c, PeerName(i), PeerName(j)), nil
		}
	}
	nd.Replica = controller.NewReplica(ccfg, peers, cfg.Monitor)
	nd.Replica.SetTracer(cfg.Tracer)

	gcfg := cfg.Gateway
	gcfg.RespawnDelay = RespawnDelay
	// Checkpoint commits carry this node's last-won term so a deposed
	// primary's in-flight chains bounce off the store fence; a fenced
	// write also tells the replica to step down immediately.
	gcfg.Checkpoints = store.NewFencedCheckpointLog(db, nd.Replica.LeaderTerm)
	gcfg.OnFenced = nd.Replica.StepDown
	gcfg.Admission = nd.Replica.Admission()
	gcfg.Tracker = nd.Replica
	gcfg.Tracer = cfg.Tracer
	if cfg.Tracer != nil {
		nd.Breakdown = stats.NewBreakdown()
		gcfg.Breakdown = nd.Breakdown
	}
	nd.Gateway = runtime.NewGatewayConfig(nd.Runtime, gcfg)
	nd.Gateway.SetMonitor(cfg.Monitor)
	if cfg.Tracer != nil {
		nd.Gateway.Server().SetInterceptor(runtime.TraceServerInterceptor(cfg.Tracer, "rpc"))
	}
	if cfg.Setup != nil {
		cfg.Setup(nd)
	}
	return nd
}

// Addrs returns the gateway addresses in replica-id order, the order
// NotLeaderError redirects index into.
func (f *Fleet) Addrs() []string {
	addrs := make([]string, len(f.Nodes))
	for i, nd := range f.Nodes {
		addrs[i] = nd.Addr
	}
	return addrs
}

// Leader waits up to timeout for a primary whose promotion-time Recover
// has returned, so no orphan re-dispatch from its takeover is still
// running when the caller starts new work.
func (f *Fleet) Leader(timeout time.Duration) (*Node, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, nd := range f.Nodes {
			if nd.Replica.State() == controller.Leader && nd.recovered.Load() == nd.Replica.LeaderTerm() {
				return nd, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet: no leader within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Crash kills every node as a process crash would, leaving the store
// unclosed: only what its WAL already wrote survives. Close is then a
// no-op.
func (f *Fleet) Crash() { f.stop(false) }

// Close kills every node and closes the store. Idempotent.
func (f *Fleet) Close() { f.stop(true) }

func (f *Fleet) stop(closeStore bool) {
	f.stopOnce.Do(func() {
		for _, nd := range f.Nodes {
			nd.Replica.Kill()
			nd.Gateway.Close()
			nd.Runtime.Close()
		}
		if closeStore {
			f.db.Close()
		}
	})
}
