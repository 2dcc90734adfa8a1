package chaos_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/fleet"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// These tests are the live §4.7 acceptance suite: a replica set of
// controller+gateway "processes" over real TCP, a chaos-scheduled kill
// of the primary mid-chain, and proof that the chain completes with
// exactly-once step effects within the failover + respawn budget —
// whether recovery comes from the new primary's orphan re-dispatch or
// from a leader-following client retrying through redirects.

// fastReplica shrinks election timescales for test speed.
var fastReplica = controller.ReplicaConfig{
	ElectionTimeoutMin: 40 * time.Millisecond,
	ElectionTimeoutMax: 80 * time.Millisecond,
	LeaseInterval:      15 * time.Millisecond,
	VoteTimeout:        50 * time.Millisecond,
}

// chainGateway is the gateway template of the durable-chain suites.
var chainGateway = runtime.GatewayConfig{Timeout: 10 * time.Second, StepRespawns: 1}

// bootFleet starts a 3-replica fleet on fast election timings; the
// test's cleanup closes it.
func bootFleet(t *testing.T, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	cfg.Replicas, cfg.Replica = 3, fastReplica
	f, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// leader waits for the fleet's recovered primary.
func leader(t *testing.T, f *fleet.Fleet) *fleet.Node {
	t.Helper()
	nd, err := f.Leader(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// pipeline is a fleet Setup that registers fns on every node and
// exposes chain as the durable chain method "pipeline".
func pipeline(chain []string, fns map[string]runtime.Function) func(*fleet.Node) {
	return func(nd *fleet.Node) {
		for name, fn := range fns {
			nd.Runtime.Register(name, fn)
		}
		nd.Gateway.ExposeChain("pipeline", chain)
	}
}

// tag is a chain tier that appends suffix to its input.
func tag(suffix string) runtime.Function {
	return func(ctx context.Context, in []byte) ([]byte, error) {
		return append(append([]byte{}, in...), suffix...), nil
	}
}

// blockingMid builds the standard 3-tier chain whose middle tier blocks
// on its very first execution (the one the primary crash interrupts)
// and runs normally afterwards.
func blockingMid(midEntered chan<- struct{}) (chain []string, fns map[string]runtime.Function) {
	var first atomic.Bool
	first.Store(true)
	fns = map[string]runtime.Function{
		"head": tag(".h"),
		"mid": func(ctx context.Context, in []byte) ([]byte, error) {
			if first.CompareAndSwap(true, false) {
				select {
				case midEntered <- struct{}{}:
				default:
				}
				<-ctx.Done() // held hostage until the primary dies
				return nil, ctx.Err()
			}
			return tag(".m")(ctx, in)
		},
		"tail": tag(".t"),
	}
	return []string{"head", "mid", "tail"}, fns
}

// Acceptance: a chaos-scheduled controller kill mid-chain, 2 hot
// standbys. The new primary's orphan re-dispatch completes the chain
// with exactly-once step effects, and the measured failover latency is
// exposed via the Monitor and bounded by election timeout + respawn
// delay.
func TestFailoverE2EOrphanRedispatchAfterPrimaryKill(t *testing.T) {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(42, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	f := bootFleet(t, fleet.Config{
		Seed: 42, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(blockingMid(midEntered)),
	})
	// Leader returns only after the primary's promotion-time Recover
	// finished, so no recovery scan can race the brand-new task below
	// and complete the chain before the crash the test choreographs.
	primary := leader(t, f)

	// Fire the chain at the primary's gateway with an explicit task id.
	// The call itself will die with the primary; recovery must come from
	// the standby takeover.
	conn, err := net.Dial("tcp", primary.Addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 4)
	defer cl.Close()
	callDone := make(chan error, 1)
	go func() {
		_, cerr := cl.Call(context.Background(), "pipeline", runtime.EncodeTask("task-e2e", []byte("x")))
		callDone <- cerr
	}()

	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Kill the primary mid-"mid" via the scheduled chaos fault — the
	// next lease round crosses the deadline and crashes the process.
	killAt := time.Now()
	inj.At(controller.KillControllerOp(primary.ID), 0)

	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call to the killed primary reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call never failed after the primary died")
	}

	// The chain completes through the new primary's Recover, with
	// exactly-once step effects: every output committed at generation 1
	// with the expected lineage.
	waitNoOrphans(t, store.NewCheckpointLog(db), 5*time.Second)
	completedIn := time.Since(killAt)
	assertExactlyOnce(t, db, "task-e2e", chainSteps)

	// The shared monitor saw the whole story.
	fo := controller.Failover(mon)
	if fo.Failovers < 1 {
		for _, nd := range f.Nodes {
			t.Logf("node %d: state=%v won term=%d", nd.ID, nd.Replica.State(), nd.Replica.LeaderTerm())
		}
		t.Fatalf("failovers = %d (elections %d), want >= 1", fo.Failovers, fo.Elections)
	}
	if fo.OrphansRedispatched < 1 {
		t.Fatalf("orphans redispatched = %d, want >= 1", fo.OrphansRedispatched)
	}
	if fo.FailoverLatency.N() < 1 {
		t.Fatal("no failover latency observation")
	}
	bound := failoverBound.Seconds()
	if fo.FailoverLatency.Max() > bound {
		t.Fatalf("failover latency %.3fs exceeds election+respawn bound %.3fs",
			fo.FailoverLatency.Max(), bound)
	}
	// End-to-end wall clock: failover + recover + remaining two tiers,
	// with generous CI slack on top of the modelled budget.
	if wall := bound + 2.0; completedIn.Seconds() > wall {
		t.Fatalf("orphan completed in %v, want under %.1fs", completedIn, wall)
	}
	if inj.FaultCount(controller.KillControllerOp(primary.ID)) != 1 {
		t.Fatalf("kill fault fired %d times, want 1", inj.FaultCount(controller.KillControllerOp(primary.ID)))
	}
}

// failoverBound is the modelled failover budget: two election timeouts,
// four vote rounds and one step respawn.
var failoverBound = 2*fastReplica.ElectionTimeoutMax + 4*fastReplica.VoteTimeout + fleet.RespawnDelay

// A leader-following client retrying the same task id across the
// failover joins the checkpointed chain instead of forking it: the
// retry and the new primary's orphan re-dispatch race, yet every step
// commits exactly once and the client gets the chain's real output.
func TestFailoverE2EClientRetryDeduplicatesAgainstRecovery(t *testing.T) {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(7, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	f := bootFleet(t, fleet.Config{
		Seed: 7, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(blockingMid(midEntered)),
	})
	primary := leader(t, f)

	fc := rpc.DialFailover(f.Addrs(), rpc.FailoverOptions{
		Attempts:     60,
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	})
	defer fc.Close()

	callDone := make(chan struct{})
	var out []byte
	var callErr error
	go func() {
		defer close(callDone)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		out, callErr = fc.Call(ctx, "pipeline", runtime.EncodeTask("task-retry", []byte("x")))
	}()

	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}
	inj.At(controller.KillControllerOp(primary.ID), 0)

	select {
	case <-callDone:
	case <-time.After(15 * time.Second):
		t.Fatal("client call never finished across the failover")
	}
	if callErr != nil {
		t.Fatalf("client call failed across failover: %v", callErr)
	}
	if string(out) != "x.h.m.t" {
		t.Fatalf("client output = %q, want x.h.m.t", out)
	}
	assertExactlyOnce(t, db, "task-retry", chainSteps)
	if mon.Counter(controller.EventFailover) < 1 {
		t.Fatal("monitor recorded no failover")
	}
}
