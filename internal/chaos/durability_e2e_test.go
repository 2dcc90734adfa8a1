package chaos_test

import (
	"context"
	"fmt"
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

// These suites are the durability half of the §4.7 acceptance story:
// the control-plane state (checkpoints, step outputs, fence) lives in
// a WAL-backed store, the whole replica set crashes, and a fresh
// cluster recovered from the WAL directory finishes the interrupted
// work with exactly-once effects. Every store mutation is term-fenced
// through the fronting replica's LeaderTerm, so the suites double as
// the fencing integration tests.

// plainChain is the 3-tier pipeline with no blocking — the function
// set a restarted cluster registers so recovered orphans run through.
func plainChain() (chain []string, fns map[string]runtime.Function) {
	fns = map[string]runtime.Function{"head": tag(".h"), "mid": tag(".m"), "tail": tag(".t")}
	return []string{"head", "mid", "tail"}, fns
}

// waitNoOrphans polls until the checkpoint log drains.
func waitNoOrphans(t *testing.T, log *store.CheckpointLog, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		orphans, err := log.Orphans()
		if err == nil && len(orphans) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphans never drained; remaining: %v (err %v)", orphans, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chainSteps is the step-output lineage of the 3-tier chain run on
// input "x".
var chainSteps = []string{"x.h", "x.h.m", "x.h.m.t"}

// assertExactlyOnce checks every step output of a task committed at
// generation 1 with the expected lineage want.
func assertExactlyOnce(t *testing.T, db *store.DB, taskID string, want []string) {
	t.Helper()
	for step := range want {
		doc, err := db.Get(store.StepOutputKey(taskID, step))
		if err != nil {
			t.Fatalf("task %s step %d output missing: %v", taskID, step, err)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("task %s step %d committed %d times, want exactly once", taskID, step, g)
		}
		if string(doc.Body) != want[step] {
			t.Fatalf("task %s step %d output = %q, want %q", taskID, step, doc.Body, want[step])
		}
	}
}

// Acceptance: the WHOLE cluster crashes mid-chain (not just the
// primary — process state is gone), a fresh cluster recovers the store
// from the WAL directory, and the interrupted task completes with
// exactly-once step effects.
func TestCrashRestartE2ERecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync: store.FsyncNever, CompactEvery: store.NoAutoCompact,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(11, chaos.Config{})
	midEntered := make(chan struct{}, 1)
	f := bootFleet(t, fleet.Config{
		Seed: 11, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(blockingMid(midEntered)),
	})
	primary := leader(t, f)

	conn, err := net.Dial("tcp", primary.Addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 4)
	defer cl.Close()
	callDone := make(chan error, 1)
	go func() {
		_, cerr := cl.Call(context.Background(), "pipeline", runtime.EncodeTask("task-crash", []byte("x")))
		callDone <- cerr
	}()
	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Crash everything. The head output and the write-ahead checkpoint
	// (NextStep=1) are on disk; the mid tier's work is lost with the
	// processes.
	f.Crash()
	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call through the crashed cluster reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call never failed after the crash")
	}

	// Recover the store from the WAL directory and prove the crash left
	// an enumerable orphan.
	db2, st, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	orphans, err := store.NewCheckpointLog(db2).Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].TaskID != "task-crash" || orphans[0].NextStep != 1 {
		t.Fatalf("orphans after recovery = %+v, want task-crash at step 1", orphans)
	}

	// A fresh cluster over the recovered store finishes the task via the
	// new primary's orphan re-dispatch.
	bootFleet(t, fleet.Config{
		Seed: 12, Store: db2, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(plainChain()),
	})
	waitNoOrphans(t, store.NewCheckpointLog(db2), 10*time.Second)
	assertExactlyOnce(t, db2, "task-crash", chainSteps)

	if db2.Fence() == 0 {
		t.Fatal("recovered cluster's promotion never raised the store fence")
	}
	if mon.Counter(controller.EventOrphanRedispatch) < 1 {
		t.Fatal("no orphan re-dispatch recorded")
	}
}

// Acceptance: snapshot+compaction runs underneath live traffic, and a
// crash afterwards recovers from the compacted snapshot plus a short
// WAL tail — recovery work is bounded by live state, not by the full
// mutation history the traffic generated.
func TestSnapshotMidTrafficE2EBoundedRecovery(t *testing.T) {
	const tasks = 25
	const compactEvery = 32
	dir := t.TempDir()
	mon := metrics.NewRegistry()
	db, _, err := store.OpenDurable(dir, store.DurableOptions{
		Fsync: store.FsyncNever, CompactEvery: compactEvery, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(13, chaos.Config{})
	f := bootFleet(t, fleet.Config{
		Seed: 13, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(plainChain()),
	})
	leader(t, f)

	fc := rpc.DialFailover(f.Addrs(), rpc.FailoverOptions{CallTimeout: 5 * time.Second})
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < tasks; i++ {
		out, cerr := fc.Call(ctx, "pipeline", runtime.EncodeTask(fmt.Sprintf("bulk-%d", i), []byte("x")))
		if cerr != nil {
			t.Fatalf("task %d failed: %v", i, cerr)
		}
		if string(out) != "x.h.m.t" {
			t.Fatalf("task %d output = %q", i, out)
		}
	}
	if mon.Counter(store.MetricSnapshot) == 0 {
		t.Fatalf("no compaction fired under %d tasks with CompactEvery=%d", tasks, compactEvery)
	}

	f.Crash()
	db2, st, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each durable chain is ~9 store mutations; without compaction the
	// WAL would hold ~9×tasks records. Recovery must replay at most one
	// compaction window's worth.
	if st.WALRecords >= 2*compactEvery {
		t.Fatalf("recovery replayed %d WAL records — compaction did not bound it (CompactEvery=%d)",
			st.WALRecords, compactEvery)
	}
	if st.SnapshotDocs == 0 {
		t.Fatal("recovery loaded no snapshot")
	}
	for i := 0; i < tasks; i++ {
		assertExactlyOnce(t, db2, fmt.Sprintf("bulk-%d", i), chainSteps)
	}
	orphans, err := store.NewCheckpointLog(db2).Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("completed traffic left orphans: %+v", orphans)
	}
	db2.Close()
}
