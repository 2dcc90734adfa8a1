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

// gatedMid builds the 3-tier chain whose middle tier parks its FIRST
// execution on the release channel (later executions — the new
// primary's orphan re-dispatch — pass straight through). It lets a
// test hold a chain hostage on a soon-to-be-partitioned primary and
// release it at a chosen moment after deposition.
func gatedMid(midEntered chan<- struct{}, release <-chan struct{}) (chain []string, fns map[string]runtime.Function) {
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
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return tag(".m")(ctx, in)
		},
		"tail": tag(".t"),
	}
	return []string{"head", "mid", "tail"}, fns
}

// Acceptance: the serving primary is cut off from both standbys by a
// symmetric pair partition while a chain it admitted is still running.
// The majority elects a new primary whose promotion raises the store
// fence; when the stranded chain finally commits, the write carries
// the deposed leader's term and bounces off the fence — no split-brain
// write lands, the client sees a wire-parseable fenced redirect, and
// after Heal the cluster converges on a single leader with every step
// of the task committed exactly once (by the majority side's orphan
// re-dispatch).
func TestPartitionE2EMinorityLeaderFenced(t *testing.T) {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(23, chaos.Config{})
	db := store.NewDB()
	db.SetMonitor(mon)
	midEntered := make(chan struct{}, 1)
	release := make(chan struct{})
	f := bootFleet(t, fleet.Config{
		Seed: 23, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(gatedMid(midEntered, release)),
	})
	primary := leader(t, f)
	oldTerm := primary.Replica.LeaderTerm()

	// Fire the chain at the primary and hold it hostage in the mid tier.
	conn, err := net.Dial("tcp", primary.Addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 4)
	defer cl.Close()
	callDone := make(chan error, 1)
	go func() {
		_, cerr := cl.Call(context.Background(), "pipeline", runtime.EncodeTask("task-fence", []byte("x")))
		callDone <- cerr
	}()
	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Cut the primary off from BOTH standbys — but not the standbys from
	// each other, and not the client from the primary's gateway. The
	// classic minority-leader partition.
	for _, nd := range f.Nodes {
		if nd != primary {
			inj.PartitionPair(fleet.PeerName(primary.ID), fleet.PeerName(nd.ID))
		}
	}

	// The majority side elects a new primary at a higher term; promotion
	// raises the shared store's fence above the deposed leader's term.
	deadline := time.Now().Add(5 * time.Second)
	var newPrimary *fleet.Node
	for newPrimary == nil {
		if time.Now().After(deadline) {
			t.Fatal("majority never elected a new primary")
		}
		for _, nd := range f.Nodes {
			if nd != primary && nd.Replica.State() == controller.Leader &&
				nd.Replica.LeaderTerm() > oldTerm {
				newPrimary = nd
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db.Fence() <= oldTerm {
		t.Fatalf("fence = %d after takeover, want above the deposed term %d", db.Fence(), oldTerm)
	}

	// The new primary's orphan re-dispatch finishes the task on the
	// majority side (the shared store stands in for the replicated DB,
	// which both sides can still reach).
	waitNoOrphans(t, store.NewCheckpointLog(db), 10*time.Second)
	assertExactlyOnce(t, db, "task-fence")

	// Release the hostage: the deposed primary's commit now carries a
	// stale term and must be fenced, not adopted.
	close(release)
	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("deposed primary's chain reported success")
		}
		if !rpc.IsFenced(cerr) {
			t.Fatalf("deposed primary's chain error = %v, want a fenced rejection", cerr)
		}
		if token, fence, ok := rpc.FencedTerms(cerr); !ok || token != oldTerm || fence <= token {
			t.Fatalf("fenced terms = (%d, %d, %v), want token %d behind fence", token, fence, ok, oldTerm)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hostage chain never finished after release")
	}
	if mon.Counter(store.MetricFencedWrite) < 1 {
		t.Fatal("store recorded no fenced write")
	}
	if mon.Counter("gateway-fenced") < 1 {
		t.Fatal("gateway recorded no fenced chain")
	}
	// Still exactly-once after the fenced attempt: nothing re-committed.
	assertExactlyOnce(t, db, "task-fence")

	// Heal. The cluster must converge on ONE leader and one term — the
	// healed minority either rejoins as follower or re-wins cleanly; it
	// cannot keep a parallel leadership.
	inj.Heal()
	deadline = time.Now().Add(5 * time.Second)
	for {
		leaders, followers := 0, 0
		var maxTerm uint64
		for _, nd := range f.Nodes {
			switch nd.Replica.State() {
			case controller.Leader:
				leaders++
			case controller.Follower:
				followers++
			}
			if term := nd.Replica.Term(); term > maxTerm {
				maxTerm = term
			}
		}
		allConverged := leaders == 1 && followers == len(f.Nodes)-1
		if allConverged {
			same := true
			for _, nd := range f.Nodes {
				if nd.Replica.Term() != maxTerm {
					same = false
				}
			}
			if same {
				break
			}
		}
		if time.Now().After(deadline) {
			for _, nd := range f.Nodes {
				lid, term := nd.Replica.Leader()
				t.Logf("node %d: state=%v leader=%d term=%d", nd.ID, nd.Replica.State(), lid, term)
			}
			t.Fatal("cluster never converged on a single leader after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if mon.Counter(controller.EventStepDown) < 1 {
		t.Fatal("no step-down recorded across the partition")
	}
}
