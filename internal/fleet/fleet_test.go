package fleet_test

import (
	"context"
	"net"
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

// One pass through everything Start wires: election, a durable chain
// through a leader-following client, the fence loop across a kill, the
// watchdog, the one registry every replica and gateway reports into,
// and an idempotent Close.
func TestFleetElectsCommitsAndFailsOver(t *testing.T) {
	begin := time.Now()
	db := store.NewDB()
	inj := chaos.NewInjector(5, chaos.Config{})
	reg := metrics.NewRegistry()
	f, err := fleet.Start(fleet.Config{
		Replicas: 3,
		Seed:     5,
		Store:    db,
		Monitor:  reg,
		Fault:    inj,
		Replica: controller.ReplicaConfig{
			ElectionTimeoutMin: 40 * time.Millisecond,
			ElectionTimeoutMax: 80 * time.Millisecond,
			LeaseInterval:      15 * time.Millisecond,
			VoteTimeout:        50 * time.Millisecond,
		},
		Gateway: runtime.GatewayConfig{Timeout: 5 * time.Second},
		Setup: func(nd *fleet.Node) {
			for _, tier := range []string{"a", "b", "c"} {
				nd.Runtime.Register(tier, func(_ context.Context, in []byte) ([]byte, error) {
					return append(append([]byte{}, in...), tier...), nil
				})
			}
			nd.Gateway.ExposeChain("chain", []string{"a", "b", "c"})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old, err := f.Leader(time.Second)
	if err != nil {
		t.Fatal(err)
	}

	fc := rpc.DialFailover(f.Addrs(), rpc.FailoverOptions{
		Attempts:     20,
		RetryBackoff: 10 * time.Millisecond,
		CallTimeout:  time.Second,
	})
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := fc.Call(ctx, "chain", runtime.EncodeTask("t1", []byte("x")))
	if err != nil || string(out) != "xabc" {
		t.Fatalf("chain = %q, %v; want xabc", out, err)
	}
	for step := 0; step < 3; step++ {
		doc, err := db.Get(store.StepOutputKey("t1", step))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("step %d committed %d times, want once", step, g)
		}
	}
	if reg.Counter("gateway-ok") < 1 || reg.Counter(controller.EventElection) < 1 {
		t.Fatalf("registry: gateway-ok = %g, elections = %g; want both >= 1",
			reg.Counter("gateway-ok"), reg.Counter(controller.EventElection))
	}

	oldTerm := old.Replica.LeaderTerm()
	inj.At(controller.KillControllerOp(old.ID), 0)
	select {
	case <-old.Replica.Done():
	case <-time.After(time.Second):
		t.Fatal("kill fault never fired")
	}
	succ, err := f.Leader(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if succ == old || succ.Replica.LeaderTerm() <= oldTerm {
		t.Fatalf("successor %d at term %d, want another node above term %d",
			succ.ID, succ.Replica.LeaderTerm(), oldTerm)
	}
	if fo := controller.Failover(reg); fo.Failovers < 1 {
		t.Fatalf("failover not in the registry: %s", fo)
	}
	if got := db.Fence(); got != succ.Replica.LeaderTerm() {
		t.Fatalf("fence = %d, want the successor's term %d", got, succ.Replica.LeaderTerm())
	}

	// The watchdog closed the dead node's gateway with its listener.
	if c, err := net.DialTimeout("tcp", old.Addr, time.Second); err == nil {
		cl := rpc.NewClient(c, 1)
		_, cerr := cl.CallSync("chain", nil)
		cl.Close()
		if cerr == nil {
			t.Fatal("dead node's gateway still serves")
		}
	}

	f.Close()
	f.Close()
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("test took %v, want under 2s", d)
	}
}

func TestStartRejectsEmptyFleet(t *testing.T) {
	if _, err := fleet.Start(fleet.Config{}); err == nil {
		t.Fatal("Start with 0 replicas succeeded")
	}
}
