package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hivemind/internal/metrics"
)

// replayAll opens the WAL collecting every replayed record.
func replayAll(t *testing.T, path string, opts WALOptions) (*WAL, [][]byte, bool) {
	t.Helper()
	var recs [][]byte
	w, truncated, err := OpenWAL(path, opts, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, recs, truncated
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	if len(recs) != 0 || truncated {
		t.Fatalf("fresh wal: %d records truncated=%v", len(recs), truncated)
	}
	want := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 {
		t.Fatalf("records = %d, want 3", w.Records())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if truncated {
		t.Fatal("clean log reported a truncated tail")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A torn tail — a partial frame from a crash mid-write — is cut back
// to the longest valid prefix, and appending afterwards works.
func TestWALTornTailRecoversValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a frame's worth of garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x09, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	if !truncated {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want the 5 valid ones", len(recs))
	}
	if err := w2.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	w3, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w3.Close()
	if truncated {
		t.Fatal("re-opened log reported truncation again")
	}
	if len(recs) != 6 || string(recs[5]) != "after-tear" {
		t.Fatalf("post-tear append lost: %d records, last %q", len(recs), recs[len(recs)-1])
	}
}

// A corrupted byte inside the tail record fails its CRC and the record
// is dropped; earlier records survive.
func TestWALCorruptTailChecksumTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("keep-me"))
	w.Append([]byte("corrupt-me"))
	w.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload byte in the last record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if !truncated {
		t.Fatal("checksum-corrupt tail not reported")
	}
	if len(recs) != 1 || string(recs[0]) != "keep-me" {
		t.Fatalf("valid prefix = %q, want [keep-me]", recs)
	}
	if w2.Records() != 1 {
		t.Fatalf("records after truncation = %d, want 1", w2.Records())
	}
}

// An absurd length prefix (corrupt header) is treated as a torn tail,
// not an allocation request.
func TestWALAbsurdLengthTreatedAsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("ok"))
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}) // 4 GiB "record"
	f.Close()

	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if !truncated || len(recs) != 1 {
		t.Fatalf("truncated=%v records=%d, want true/1", truncated, len(recs))
	}
}

func TestWALResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _ := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	w.Append([]byte("a"))
	w.Append([]byte("b"))
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 || w.Size() != 0 {
		t.Fatalf("after reset: records=%d size=%d", w.Records(), w.Size())
	}
	w.Append([]byte("c"))
	w.Close()
	w2, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
	defer w2.Close()
	if truncated || len(recs) != 1 || string(recs[0]) != "c" {
		t.Fatalf("post-reset log = %q (truncated=%v), want [c]", recs, truncated)
	}
}

// FsyncBatch syncs every SyncEvery appends; the fsync counter proves
// the policy held.
func TestWALFsyncBatchPolicy(t *testing.T) {
	mon := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, WALOptions{Fsync: FsyncBatch, SyncEvery: 4, Monitor: mon}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Counter(MetricWALFsync); got != 2 {
		t.Fatalf("fsyncs after 10 appends at batch 4 = %g, want 2", got)
	}
	w.Close() // flushes the remaining 2
	if got := mon.Counter(MetricWALFsync); got != 3 {
		t.Fatalf("fsyncs after close = %g, want 3", got)
	}
	if got := mon.Counter(MetricWALAppend); got != 10 {
		t.Fatalf("appends = %g, want 10", got)
	}
}

// FuzzWALReplay opens arbitrary bytes as a log. Replay must never
// panic, must keep exactly the longest prefix of whole valid frames,
// must report a cut tail exactly when it dropped bytes, and must leave
// a log that reopens to the same records with nothing left to cut.
func FuzzWALReplay(f *testing.F) {
	valid := append(frame([]byte("alpha")), frame(nil)...)
	valid = append(valid, frame(bytes.Repeat([]byte{0xAB}, 300))...)
	badCRC := frame([]byte("beta"))
	badCRC[walHeaderSize] ^= 0xFF
	oversized := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 'x'}
	for _, seed := range [][]byte{
		nil,
		valid,
		append(append([]byte(nil), valid...), 0x00, 0x00, 0x01), // torn header
		append(append([]byte(nil), valid...), badCRC...),
		append(frame([]byte("gamma")), oversized...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
		size := w.Size()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var reframed []byte
		for _, rec := range recs {
			reframed = append(reframed, frame(rec)...)
		}
		if size > int64(len(data)) || !bytes.Equal(reframed, data[:size]) {
			t.Fatalf("kept %d of %d bytes, but the replayed records re-frame to %d bytes that differ",
				size, len(data), len(reframed))
		}
		if truncated != (size < int64(len(data))) {
			t.Fatalf("truncated = %v after keeping %d of %d bytes", truncated, size, len(data))
		}
		w2, again, truncated2 := replayAll(t, path, WALOptions{Fsync: FsyncNever})
		defer w2.Close()
		if truncated2 || len(again) != len(recs) || w2.Size() != size {
			t.Fatalf("reopen: %d records, %d bytes, truncated %v; want %d records, %d bytes, no cut",
				len(again), w2.Size(), truncated2, len(recs), size)
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("reopen: record %d = %q, want %q", i, again[i], recs[i])
			}
		}
	})
}
