package controller

import (
	"encoding/json"
	"testing"
	"time"

	"hivemind/internal/metrics"
)

// leaseFor marshals a lease broadcast for direct handler-level tests.
func leaseFor(term uint64, leader int, tasks map[string]TaskRecord) []byte {
	raw, _ := json.Marshal(leaseMsg{Term: term, Leader: leader, Tasks: tasks})
	return raw
}

// applyLease feeds a lease into the replica's handler and decodes the
// response.
func applyLease(t *testing.T, r *Replica, payload []byte) leaseResp {
	t.Helper()
	raw, err := r.handleLease(payload)
	if err != nil {
		t.Fatalf("handleLease: %v", err)
	}
	var resp leaseResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// A follower rejects a lease from a stale term outright: the deposed
// primary's broadcast must not roll replicated state back, and the
// response's higher term tells the old primary to step down.
func TestHandleLeaseRejectsStaleTerm(t *testing.T) {
	r := NewReplica(fastReplicaConfig(0, 3, 1), nil, nil)
	defer r.Kill()

	fresh := applyLease(t, r, leaseFor(5, 1, map[string]TaskRecord{"t1": {Method: "m", Step: 2}}))
	if !fresh.OK || fresh.Term != 5 {
		t.Fatalf("fresh lease resp = %+v, want OK at term 5", fresh)
	}

	stale := applyLease(t, r, leaseFor(3, 2, map[string]TaskRecord{"rollback": {}}))
	if stale.OK {
		t.Fatal("stale-term lease was applied")
	}
	if stale.Term != 5 {
		t.Fatalf("stale lease resp term = %d, want the current term 5", stale.Term)
	}
	tasks := r.Tasks()
	if _, rolled := tasks["rollback"]; rolled {
		t.Fatal("stale lease rolled the task table back")
	}
	if tk, ok := tasks["t1"]; !ok || tk.Step != 2 {
		t.Fatalf("replicated task state lost: %+v", tasks)
	}
	if lid, term := leaderOf(r); lid != 1 || term != 5 {
		t.Fatalf("leader/term = %d/%d after stale lease, want 1/5", lid, term)
	}
}

// A leader that hears a lease from a HIGHER term steps down to
// follower at that term — the healed-old-primary path: after a
// partition heals, the newer primary's first broadcast demotes it.
func TestHandleLeaseHigherTermDemotesLeader(t *testing.T) {
	cfg := fastReplicaConfig(0, 1, 1)
	r := NewReplica(cfg, nil, nil)
	defer r.Kill()
	r.Start()
	deadline := time.Now().Add(3 * time.Second)
	for r.State() != Leader {
		if time.Now().After(deadline) {
			t.Fatal("single replica never elected itself")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wonTerm := r.LeaderTerm()

	resp := applyLease(t, r, leaseFor(wonTerm+10, 1, nil))
	if !resp.OK || resp.Term != wonTerm+10 {
		t.Fatalf("higher-term lease resp = %+v", resp)
	}
	if r.State() != Follower {
		t.Fatalf("state after higher-term lease = %v, want follower", r.State())
	}
	if lid, term := leaderOf(r); lid != 1 || term != wonTerm+10 {
		t.Fatalf("leader/term = %d/%d, want 1/%d", lid, term, wonTerm+10)
	}
	// LeaderTerm stays at the term this replica actually WON: its fence
	// token must not ride the newer primary's term.
	if r.LeaderTerm() != wonTerm {
		t.Fatalf("LeaderTerm = %d after demotion, want %d", r.LeaderTerm(), wonTerm)
	}
}

// StepDown demotes a leader immediately (the OnFenced path) and is a
// no-op on followers; the demotion is counted.
func TestStepDownDemotesLeader(t *testing.T) {
	mon := metrics.NewRegistry()
	cfg := fastReplicaConfig(0, 1, 1)
	r := NewReplica(cfg, nil, mon)
	defer r.Kill()
	r.Start()
	deadline := time.Now().Add(3 * time.Second)
	for r.State() != Leader {
		if time.Now().After(deadline) {
			t.Fatal("single replica never elected itself")
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.StepDown()
	if got := mon.Counter(EventStepDown); got != 1 {
		t.Fatalf("step-down count = %g, want 1", got)
	}
	// A 1-replica set re-elects itself immediately; the counted
	// demotion is the assertion, not a lasting follower state. Run the
	// no-op branch against a replica that never led.
	follower := NewReplica(fastReplicaConfig(1, 3, 1), nil, mon)
	defer follower.Kill()
	follower.StepDown()
	if got := mon.Counter(EventStepDown); got != 1 {
		t.Fatalf("follower StepDown counted: %g", got)
	}
}

// Promotion reports the won term through OnPromote before serving, and
// InitialTerm makes a restarted replica set resume above a recovered
// fence instead of electing leaders the fence would reject.
func TestOnPromoteAndInitialTerm(t *testing.T) {
	promoted := make(chan uint64, 4)
	cfg := fastReplicaConfig(0, 1, 1)
	cfg.InitialTerm = 7
	cfg.OnPromote = func(term uint64) { promoted <- term }
	r := NewReplica(cfg, nil, nil)
	defer r.Kill()
	r.Start()
	select {
	case term := <-promoted:
		if term != 8 {
			t.Fatalf("promoted at term %d, want InitialTerm+1 = 8", term)
		}
		if r.LeaderTerm() != term {
			t.Fatalf("LeaderTerm = %d, want the promoted term %d", r.LeaderTerm(), term)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("OnPromote never fired")
	}
}
