package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hivemind/internal/metrics"
)

// memOpts is the fast durable configuration for tests: no fsync, no
// auto-compaction unless a test asks for it.
func memOpts() DurableOptions {
	return DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact}
}

func TestDurableRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, st, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotDocs != 0 || st.WALRecords != 0 {
		t.Fatalf("fresh dir stats = %+v", st)
	}
	rev1, err := db.PutFenced(0, "a", "", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.PutFenced(0, "a", rev1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Force("b", []byte("bee")); err != nil {
		t.Fatal(err)
	}
	seq, fence := db.Seq(), db.Fence()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st2.WALRecords != 3 || st2.SnapshotDocs != 0 || st2.TruncatedTail {
		t.Fatalf("recover stats = %+v, want 3 wal records, no snapshot, no truncation", st2)
	}
	if db2.Seq() != seq || db2.Fence() != fence {
		t.Fatalf("seq/fence = %d/%d, want %d/%d", db2.Seq(), db2.Fence(), seq, fence)
	}
	if db2.Len() != 2 {
		t.Fatalf("len = %d, want 2", db2.Len())
	}
	docA, err := db2.Get("a")
	if err != nil || string(docA.Body) != "v2" || RevGen(docA.Rev) != 2 {
		t.Fatalf("doc a = %+v err=%v, want v2 at gen 2", docA, err)
	}
}

func TestDurableCompactionBoundsRecoveryByLiveState(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 300 updates over 10 live keys: history ≫ live state.
	for i := 0; i < 300; i++ {
		if _, err := db.Force(fmt.Sprintf("k%d", i%10), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if db.wal.Records() != 0 {
		t.Fatalf("wal records after compaction = %d, want 0", db.wal.Records())
	}
	// A small post-compaction tail.
	db.Force("k0", []byte("tail"))
	db.Close()

	db2, st, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st.SnapshotDocs != 10 || st.WALRecords != 1 {
		t.Fatalf("stats = %+v, want 10 snapshot docs + 1 wal record", st)
	}
	if doc, _ := db2.Get("k0"); string(doc.Body) != "tail" {
		t.Fatalf("k0 = %q, want tail", doc.Body)
	}
	if doc, _ := db2.Get("k9"); string(doc.Body) != "v299" {
		t.Fatalf("k9 = %q, want v299", doc.Body)
	}
}

// The acceptance-criteria assertion: after snapshot+compaction,
// recovery work is a function of live state, not history — a directory
// with 10× the update history recovers with identical replayed work
// and comparable wall clock.
func TestDurableRecoveryFlatVsHistoryAt10x(t *testing.T) {
	build := func(updates int) string {
		dir := t.TempDir()
		db, _, err := OpenDurable(dir, memOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < updates; i++ {
			if _, err := db.Force(fmt.Sprintf("key-%d", i%50), make([]byte, 256)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactNow(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ { // identical small tails
			db.Force(fmt.Sprintf("key-%d", i), []byte("tail"))
		}
		db.Close()
		return dir
	}
	recoverTimed := func(dir string) (RecoverStats, time.Duration) {
		best := time.Duration(1<<62 - 1)
		var st RecoverStats
		for i := 0; i < 3; i++ { // min-of-3 to shrug off scheduler noise
			start := time.Now()
			db, s, err := OpenDurable(dir, memOpts())
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			if el < best {
				best, st = el, s
			}
		}
		return st, best
	}

	const base = 1000
	dirA := build(base)
	dirB := build(10 * base)
	stA, elA := recoverTimed(dirA)
	stB, elB := recoverTimed(dirB)

	if stA.SnapshotDocs != stB.SnapshotDocs || stA.WALRecords != stB.WALRecords {
		t.Fatalf("recovery work diverged with history: %+v vs %+v", stA, stB)
	}
	if stB.SnapshotDocs != 50 || stB.WALRecords != 5 {
		t.Fatalf("10x stats = %+v, want 50 live docs + 5 tail records", stB)
	}
	// Identical work should mean comparable time; allow generous CI
	// slack — the point is it is not ~10x.
	if elB > 5*elA+50*time.Millisecond {
		t.Fatalf("recovery at 10x history took %v vs %v — not flat", elB, elA)
	}
}

func TestDurableAutoCompactionTriggers(t *testing.T) {
	mon := metrics.NewRegistry()
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: 16, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		if _, err := db.Force("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Counter(MetricSnapshot); got < 5 {
		t.Fatalf("snapshots after 100 writes at CompactEvery=16: %g, want >= 5", got)
	}
	if db.wal.Records() >= 16 {
		t.Fatalf("wal records = %d, want < CompactEvery", db.wal.Records())
	}
}

// A crash that tears the WAL tail loses only the torn record: the
// valid prefix recovers and the truncation is observable.
func TestDurableRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	db.Force("good", []byte("committed"))
	db.Close()
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01}) // torn frame header
	f.Close()

	mon := metrics.NewRegistry()
	db2, st, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !st.TruncatedTail {
		t.Fatal("torn tail not reported in recover stats")
	}
	if mon.Counter(MetricWALTruncatedTail) != 1 {
		t.Fatalf("truncated-tail counter = %g, want 1", mon.Counter(MetricWALTruncatedTail))
	}
	if doc, gerr := db2.Get("good"); gerr != nil || string(doc.Body) != "committed" {
		t.Fatalf("valid prefix lost: %v %q", gerr, doc.Body)
	}
}

// A record recovery would read as a torn tail must be refused at append
// time: accepting it would drop it, and every acknowledged record after
// it, at the next open.
func TestDurableRefusesRecordRecoveryWouldDrop(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Fsync: FsyncAlways, CompactEvery: NoAutoCompact}
	db, _, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Force("before", []byte("a")); err != nil {
		t.Fatal(err)
	}
	_, err = db.Force("big", make([]byte, maxWALRecord))
	var tooLarge *RecordTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Len <= maxWALRecord {
		t.Fatalf("oversized Force error = %v, want RecordTooLargeError", err)
	}
	if _, gerr := db.Get("big"); !errors.Is(gerr, ErrNotFound) {
		t.Fatalf("refused document is in memory: %v", gerr)
	}
	if _, err := db.Force("after", []byte("b")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, st, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st.TruncatedTail || st.WALRecords != 2 {
		t.Fatalf("recovered %d WAL records (torn tail %v), want 2 and no tail", st.WALRecords, st.TruncatedTail)
	}
	for id, want := range map[string]string{"before": "a", "after": "b"} {
		if doc, gerr := db2.Get(id); gerr != nil || string(doc.Body) != want {
			t.Fatalf("%s after recovery = %q, %v; want %q", id, doc.Body, gerr, want)
		}
	}
}

func TestFencedWritesRejectStaleTerms(t *testing.T) {
	mon := metrics.NewRegistry()
	db := NewDB()
	db.SetMonitor(mon)
	if _, err := db.ForceFenced(3, "doc", []byte("term3")); err != nil {
		t.Fatal(err)
	}
	if db.Fence() != 3 {
		t.Fatalf("fence = %d, want 3", db.Fence())
	}
	// A stale-term writer is rejected with the typed error.
	_, err := db.ForceFenced(2, "doc", []byte("stale"))
	var fe *FencedError
	if !errors.As(err, &fe) || !errors.Is(err, ErrFenced) {
		t.Fatalf("stale write error = %v, want FencedError", err)
	}
	if fe.Token != 2 || fe.Fence != 3 {
		t.Fatalf("fenced error terms = %+v, want token 2 fence 3", fe)
	}
	if doc, _ := db.Get("doc"); string(doc.Body) != "term3" {
		t.Fatalf("stale write landed: %q", doc.Body)
	}
	if mon.Counter(MetricFencedWrite) != 1 {
		t.Fatalf("fenced-write counter = %g, want 1", mon.Counter(MetricFencedWrite))
	}
	// Unfenced writers (token 0) bypass fencing entirely.
	if _, err := db.Force("doc", []byte("unfenced")); err != nil {
		t.Fatalf("unfenced write rejected: %v", err)
	}
	// A stale Put is fenced too.
	if _, err := db.PutFenced(1, "new", "", []byte("x")); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale PutFenced error = %v", err)
	}
}

func TestRaiseFencePersistsAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseFence(7); err != nil {
		t.Fatal(err)
	}
	if err := db.RaiseFence(5); err != nil { // lowering is a no-op
		t.Fatal(err)
	}
	if db.Fence() != 7 {
		t.Fatalf("fence = %d, want 7", db.Fence())
	}
	db.Close()
	db2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Fence() != 7 {
		t.Fatalf("fence after recovery = %d, want 7", db2.Fence())
	}
	if _, err := db2.ForceFenced(6, "x", nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale write after recovery = %v, want fenced", err)
	}
}

// Fence survives compaction (it rides the snapshot header).
func TestFenceSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	db.ForceFenced(9, "doc", []byte("v"))
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st.WALRecords != 0 {
		t.Fatalf("wal records after compaction = %d", st.WALRecords)
	}
	if db2.Fence() != 9 {
		t.Fatalf("fence after compacted recovery = %d, want 9", db2.Fence())
	}
}

// The crash window between snapshot rename and WAL truncation: replay
// of the whole old WAL over the fresh snapshot must be idempotent.
func TestDurableSnapshotThenStaleWALReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	db.Force("a", []byte("1"))
	rev, _ := db.PutFenced(0, "b", "", []byte("2"))
	db.PutFenced(0, "b", rev, []byte("3"))

	// Simulate the torn compaction: save the pre-compaction WAL, let
	// compaction truncate it, then put the stale WAL back.
	walPath := filepath.Join(dir, walFileName)
	db.wal.Sync()
	staleWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.WriteFile(walPath, staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st.WALRecords != 3 {
		t.Fatalf("replayed %d stale records, want 3", st.WALRecords)
	}
	if db2.Len() != 2 {
		t.Fatalf("len = %d, want 2", db2.Len())
	}
	if doc, _ := db2.Get("a"); string(doc.Body) != "1" {
		t.Fatalf("a = %q", doc.Body)
	}
	if doc, _ := db2.Get("b"); string(doc.Body) != "3" || RevGen(doc.Rev) != 2 {
		t.Fatalf("b = %q at gen %d, want 3 at gen 2: stale replay rewound it", doc.Body, RevGen(doc.Rev))
	}
}

// TestDurableClosedRejectsWrites: after Close a durable store has no
// WAL, so every mutation must fail with ErrClosed and change nothing —
// an acknowledged write that was never logged would vanish at
// recovery. An in-memory store has nothing to lose and keeps working.
func TestDurableClosedRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	rev, err := db.PutFenced(3, "doc", "", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seq, fence := db.Seq(), db.Fence()
	writes := []struct {
		name  string
		write func() error
	}{
		{"PutFenced", func() error { _, err := db.PutFenced(4, "doc", rev, []byte("v2")); return err }},
		{"Put", func() error { _, err := db.PutFenced(0, "new", "", []byte("x")); return err }},
		{"ForceFenced", func() error { _, err := db.ForceFenced(5, "k", []byte("x")); return err }},
		{"Force", func() error { _, err := db.Force("k", []byte("x")); return err }},
		{"RaiseFence", func() error { return db.RaiseFence(9) }},
		{"RaiseFence below the fence", func() error { return db.RaiseFence(1) }},
		{"CompactNow", db.CompactNow},
	}
	for _, w := range writes {
		if err := w.write(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s on a closed durable store = %v, want ErrClosed", w.name, err)
		}
	}
	if db.Seq() != seq || db.Fence() != fence || db.Len() != 1 {
		t.Fatalf("closed store changed: seq %d→%d fence %d→%d len %d",
			seq, db.Seq(), fence, db.Fence(), db.Len())
	}

	db2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if doc, err := db2.Get("doc"); err != nil || doc.Rev != rev {
		t.Fatalf("doc after recovery = %+v, %v; want rev %s", doc, err, rev)
	}
	if _, err := db2.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("write made after Close recovered: %v", err)
	}

	mem := NewDB()
	mem.Close()
	if _, err := mem.Force("k", []byte("x")); err != nil {
		t.Fatalf("in-memory store after Close: %v", err)
	}
}

// compactedSnapshot returns the snapshot file of a store compacted over
// two documents and a raised fence.
func compactedSnapshot(tb testing.TB, dir string) []byte {
	tb.Helper()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		tb.Fatal(err)
	}
	db.Force("a", []byte("1"))
	if _, err := db.PutFenced(3, "b", "", []byte("2")); err != nil {
		tb.Fatal(err)
	}
	if err := db.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// A snapshot whose valid header is followed by a well-framed record
// that is not a document (an empty frame, a fence, a second header)
// is corrupt: Recover reports ErrCorruptRecord instead of panicking on
// the empty frame or loading a fence as a document.
func TestRecoverRejectsNonDocumentSnapshotRecords(t *testing.T) {
	snap := compactedSnapshot(t, t.TempDir())
	for name, frame := range map[string][]byte{
		"empty frame":   appendFrame(nil, nil),
		"fence":         appendFenceFrame(nil, 9),
		"second header": appendHeaderFrame(nil, 1, 1),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			data := append(append([]byte(nil), snap...), frame...)
			if err := os.WriteFile(filepath.Join(dir, snapshotFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Recover(dir); !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Recover = %v, want ErrCorruptRecord", err)
			}
		})
	}
}

// FuzzSnapshotLoad recovers a directory whose snapshot holds arbitrary
// bytes. Recover must never panic: it either fails with
// ErrCorruptRecord or returns a store.
func FuzzSnapshotLoad(f *testing.F) {
	snap := compactedSnapshot(f, f.TempDir())
	f.Add(snap)
	f.Add(append(append([]byte(nil), snap...), make([]byte, walHeaderSize)...))
	f.Add([]byte(nil))
	f.Add(bigSnapshot()) // frames that cross the read buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, _, err := Recover(dir)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Recover = %v, want nil or ErrCorruptRecord", err)
			}
			return
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
