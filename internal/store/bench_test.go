package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkPut measures document creation throughput.
func BenchmarkPut(b *testing.B) {
	db := NewDB()
	body := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PutFenced(0, fmt.Sprintf("doc-%d", i), "", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet measures read throughput (includes the defensive copy).
func BenchmarkGet(b *testing.B) {
	db := NewDB()
	body := make([]byte, 1024)
	db.PutFenced(0, "doc", "", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get("doc"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateChain measures revisioned update throughput.
func BenchmarkUpdateChain(b *testing.B) {
	db := NewDB()
	rev, _ := db.PutFenced(0, "doc", "", []byte("v"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rev, err = db.PutFenced(0, "doc", rev, []byte("v"))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentReaders measures RWMutex read scaling.
func BenchmarkConcurrentReaders(b *testing.B) {
	db := NewDB()
	db.PutFenced(0, "doc", "", make([]byte, 256))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			db.Get("doc")
		}
	})
}

// BenchmarkDurablePutFsyncNever measures the WAL framing+append
// overhead on the write path with fsync off — the pure logging cost
// over the in-memory BenchmarkPut baseline.
func BenchmarkDurablePutFsyncNever(b *testing.B) {
	db, _, err := OpenDurable(b.TempDir(), DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	body := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Force("doc", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurablePutFsyncBatch adds group-commit fsync every 64
// appends — the durability policy a live deployment would run.
func BenchmarkDurablePutFsyncBatch(b *testing.B) {
	db, _, err := OpenDurable(b.TempDir(), DurableOptions{
		Fsync: FsyncBatch, CompactEvery: NoAutoCompact,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	body := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Force("doc", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend isolates the raw framed-append path.
func BenchmarkWALAppend(b *testing.B) {
	w, _, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), WALOptions{Fsync: FsyncNever}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecoveryDir builds a store directory with `updates` writes over
// 100 live keys, compacted or not.
func benchRecoveryDir(b *testing.B, updates int, compact bool) string {
	b.Helper()
	dir := b.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact})
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 256)
	for i := 0; i < updates; i++ {
		if _, err := db.Force(fmt.Sprintf("key-%d", i%100), body); err != nil {
			b.Fatal(err)
		}
	}
	if compact {
		if err := db.CompactNow(); err != nil {
			b.Fatal(err)
		}
	}
	db.Close()
	return dir
}

// BenchmarkRecoverHistory10kUncompacted replays the full 10k-record
// WAL on every open — recovery cost grows with history.
func BenchmarkRecoverHistory10kUncompacted(b *testing.B) {
	dir := benchRecoveryDir(b, 10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkRecoverHistory10kCompacted loads the 100-doc snapshot
// instead — recovery cost is bounded by live state, the property the
// compaction exists to buy.
func BenchmarkRecoverHistory10kCompacted(b *testing.B) {
	dir := benchRecoveryDir(b, 10000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkCompact snapshots a store shaped like fleet-chain-wal's
// after 20 000 completed chains: per task a 1 KiB input, three ~1 KiB
// step outputs and the checkpoint JSON. MB/s is snapshot bytes written.
func BenchmarkCompact(b *testing.B) {
	dir := b.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{Fsync: FsyncNever, CompactEvery: NoAutoCompact})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ckpt := NewCheckpointLog(db)
	in := make([]byte, 1024)
	for i := 0; i < 20000; i++ {
		task := fmt.Sprintf("task-%d", i)
		if _, _, err := ckpt.Begin(task, "chain3", in); err != nil {
			b.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			if _, err := ckpt.CommitStep(task, step, in[:1024+step-2]); err != nil {
				b.Fatal(err)
			}
		}
		if err := ckpt.Complete(task); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactNow(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, snapshotFileName))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.CompactNow(); err != nil {
			b.Fatal(err)
		}
	}
}
