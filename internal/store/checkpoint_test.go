package store

import (
	"sync"
	"testing"

	"hivemind/internal/metrics"
)

func TestCheckpointBeginIsIdempotent(t *testing.T) {
	l := NewCheckpointLog(NewDB())
	ck, in, err := l.Begin("t1", "m.chain", []byte("original"))
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if ck.Method != "m.chain" || ck.NextStep != 0 || ck.Done {
		t.Fatalf("unexpected fresh checkpoint: %+v", ck)
	}
	if string(in) != "original" {
		t.Fatalf("input = %q, want original", in)
	}
	// A re-dispatch with a different payload must get the stored input
	// back, not fork the chain.
	ck2, in2, err := l.Begin("t1", "m.chain", []byte("forged"))
	if err != nil {
		t.Fatalf("re-begin: %v", err)
	}
	if string(in2) != "original" {
		t.Fatalf("resumed input = %q, want original", in2)
	}
	if ck2.TaskID != ck.TaskID || ck2.InputKey != ck.InputKey {
		t.Fatalf("resumed checkpoint diverged: %+v vs %+v", ck2, ck)
	}
}

func TestCheckpointCommitStepIsExactlyOnce(t *testing.T) {
	db := NewDB()
	l := NewCheckpointLog(db)
	if _, _, err := l.Begin("t1", "m", []byte("in")); err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Two incarnations of the same step commit concurrently; exactly one
	// body must win and both must observe it.
	const writers = 8
	results := make([]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := l.CommitStep("t1", 0, []byte{'v', byte('0' + w)})
			if err != nil {
				t.Errorf("commit %d: %v", w, err)
				return
			}
			results[w] = string(out)
		}()
	}
	wg.Wait()
	for w := 1; w < writers; w++ {
		if results[w] != results[0] {
			t.Fatalf("writer %d observed %q, writer 0 observed %q", w, results[w], results[0])
		}
	}
	doc, err := db.Get(StepOutputKey("t1", 0))
	if err != nil {
		t.Fatalf("get output: %v", err)
	}
	if g := RevGen(doc.Rev); g != 1 {
		t.Fatalf("output committed %d times (rev %s), want exactly once", g, doc.Rev)
	}
	if string(doc.Body) != results[0] {
		t.Fatalf("stored %q, observers saw %q", doc.Body, results[0])
	}
}

func TestCheckpointOrphansEnumeratesIncompleteTasks(t *testing.T) {
	l := NewCheckpointLog(NewDB())
	for _, id := range []string{"b", "a", "c"} {
		if _, _, err := l.Begin(id, "m", []byte(id)); err != nil {
			t.Fatalf("begin %s: %v", id, err)
		}
	}
	if err := l.Advance("a", 2); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if err := l.Complete("b"); err != nil {
		t.Fatalf("complete: %v", err)
	}
	orphans, err := l.Orphans()
	if err != nil {
		t.Fatalf("orphans: %v", err)
	}
	if len(orphans) != 2 || orphans[0].TaskID != "a" || orphans[1].TaskID != "c" {
		t.Fatalf("orphans = %+v, want [a c]", orphans)
	}
	if orphans[0].NextStep != 2 {
		t.Fatalf("orphan a NextStep = %d, want 2", orphans[0].NextStep)
	}
}

func TestCheckpointAdvanceIsMonotonic(t *testing.T) {
	l := NewCheckpointLog(NewDB())
	if _, _, err := l.Begin("t", "m", nil); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := l.Advance("t", 3); err != nil {
		t.Fatalf("advance 3: %v", err)
	}
	// A stale duplicate cannot rewind a resumed task.
	if err := l.Advance("t", 1); err != nil {
		t.Fatalf("advance 1: %v", err)
	}
	orphans, _ := l.Orphans()
	if len(orphans) != 1 || orphans[0].NextStep != 3 {
		t.Fatalf("orphans = %+v, want NextStep 3", orphans)
	}
}

func TestCheckpointStepOutputRoundTrip(t *testing.T) {
	l := NewCheckpointLog(NewDB())
	if _, ok, err := l.StepOutput("t", 0); err != nil || ok {
		t.Fatalf("missing output: ok=%v err=%v, want absent", ok, err)
	}
	if _, err := l.CommitStep("t", 0, []byte("out")); err != nil {
		t.Fatalf("commit: %v", err)
	}
	out, ok, err := l.StepOutput("t", 0)
	if err != nil || !ok || string(out) != "out" {
		t.Fatalf("round trip: %q ok=%v err=%v", out, ok, err)
	}
}

// Quarantine, don't abort: one corrupt checkpoint record must not
// block recovery of every healthy task — Orphans skips it, counts it,
// and keeps scanning.
func TestOrphansQuarantinesCorruptCheckpoint(t *testing.T) {
	mon := metrics.NewRegistry()
	db := NewDB()
	db.SetMonitor(mon)
	log := NewCheckpointLog(db)
	if _, _, err := log.Begin("healthy-a", "m", []byte("in")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Begin("healthy-b", "m", []byte("in")); err != nil {
		t.Fatal(err)
	}
	// A torn or bit-flipped checkpoint record: valid store document,
	// garbage JSON payload.
	if _, err := db.Force(CheckpointKey("corrupt"), []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	orphans, err := log.Orphans()
	if err != nil {
		t.Fatalf("Orphans aborted on the corrupt record: %v", err)
	}
	if len(orphans) != 2 {
		t.Fatalf("orphans = %+v, want the 2 healthy tasks", orphans)
	}
	for i, want := range []string{"healthy-a", "healthy-b"} {
		if orphans[i].TaskID != want {
			t.Fatalf("orphan %d = %q, want %q", i, orphans[i].TaskID, want)
		}
	}
	if got := mon.Counter(MetricCorruptCheckpoint); got != 1 {
		t.Fatalf("corrupt-checkpoint counter = %g, want 1", got)
	}
	// A second scan counts it again — the record is still there, still
	// quarantined, still visible to operators.
	if _, err := log.Orphans(); err != nil {
		t.Fatal(err)
	}
	if got := mon.Counter(MetricCorruptCheckpoint); got != 2 {
		t.Fatalf("corrupt-checkpoint counter after rescan = %g, want 2", got)
	}
}
