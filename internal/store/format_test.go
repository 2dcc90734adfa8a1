package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The reference encoders below are the allocating encoders the store
// used before frames were encoded in place. They pin the on-disk
// format: every frame the store writes must be byte-identical to
// theirs, and a directory they wrote must recover unchanged.

func refFrame(rec []byte) []byte {
	buf := make([]byte, walHeaderSize+len(rec))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(rec, crcTable))
	copy(buf[walHeaderSize:], rec)
	return buf
}

func refField(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func refEncodeSet(doc Doc, token uint64) []byte {
	rec := []byte{recSet}
	rec = refField(rec, []byte(doc.ID))
	rec = refField(rec, []byte(doc.Rev))
	rec = refField(rec, doc.Body)
	return binary.BigEndian.AppendUint64(rec, token)
}

func refEncodeFence(token uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{recFence}, token)
}

func refEncodeHeader(seq, fence uint64) []byte {
	rec := append([]byte{recHeader}, snapshotMagic...)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	return binary.BigEndian.AppendUint64(rec, fence)
}

func refRevToken(gen int, body []byte) string {
	h := sha256.Sum256(body)
	return fmt.Sprintf("%d-%s", gen, hex.EncodeToString(h[:6]))
}

// formatBodies are the body sizes the format tests cover: empty, one
// byte, either side of the 64 KiB buffer, and three buffers' worth.
var formatBodies = []int{0, 1, walBufSize - 1, walBufSize, 200 << 10}

func formatBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + n)
	}
	return b
}

func TestRevTokenMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 1 << 10, 64 << 10} {
		body := formatBody(n)
		for gen := 1; gen <= 1000; gen++ {
			if got, want := revToken(gen, body), refRevToken(gen, body); got != want {
				t.Fatalf("revToken(%d, %d B) = %q, want %q", gen, n, got, want)
			}
		}
	}
}

// Every frame the in-place encoders build, alone or after other frames
// in the same buffer, is byte-identical to the reference encoder's.
func TestWALFramesMatchReferenceEncoder(t *testing.T) {
	prefix := appendFenceFrame(nil, 2)
	for _, n := range formatBodies {
		doc := Doc{ID: fmt.Sprintf("doc-%d", n), Rev: revToken(3, formatBody(n)), Body: formatBody(n)}
		want := refFrame(refEncodeSet(doc, 7))
		if got := appendSetFrame(nil, doc, 7); !bytes.Equal(got, want) {
			t.Fatalf("%d B body: set frame differs from the reference", n)
		}
		got := appendSetFrame(append([]byte(nil), prefix...), doc, 7)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%d B body: set frame after another frame differs from the reference", n)
		}
		if got := appendFrame(nil, doc.Body); !bytes.Equal(got, refFrame(doc.Body)) {
			t.Fatalf("%d B raw record: frame differs from the reference", n)
		}
		if setLen(doc) != len(want)-walHeaderSize {
			t.Fatalf("setLen = %d, the record is %d bytes", setLen(doc), len(want)-walHeaderSize)
		}
	}
	if got := appendFenceFrame(nil, 9); !bytes.Equal(got, refFrame(refEncodeFence(9))) {
		t.Fatal("fence frame differs from the reference")
	}
	if got := appendHeaderFrame(nil, 5, 9); !bytes.Equal(got, refFrame(refEncodeHeader(5, 9))) {
		t.Fatal("header frame differs from the reference")
	}

	// What a durable store writes to its log is the reference framing.
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, n := range formatBodies {
		rev, err := db.ForceFenced(4, "k", formatBody(n))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, refFrame(refEncodeSet(Doc{ID: "k", Rev: rev, Body: formatBody(n)}, 4))...)
	}
	if err := db.RaiseFence(6); err != nil {
		t.Fatal(err)
	}
	want = append(want, refFrame(refEncodeFence(6))...)
	db.Close()
	got, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal.log (%d B) differs from the reference encoding (%d B)", len(got), len(want))
	}
}

// A directory written entirely by the reference encoder — a snapshot
// and a WAL suffix over it — recovers to the documents, Seq and Fence
// it describes.
func TestDurableRecoversReferenceEncodedDir(t *testing.T) {
	dir := t.TempDir()
	want := map[string]Doc{}
	snap := refFrame(refEncodeHeader(40, 3))
	for i, n := range formatBodies {
		doc := Doc{ID: fmt.Sprintf("snap-%d", i), Rev: refRevToken(2, formatBody(n)), Body: formatBody(n)}
		want[doc.ID] = doc
		snap = append(snap, refFrame(refEncodeSet(doc, 0))...)
	}
	var wal []byte
	for i, n := range formatBodies {
		doc := Doc{ID: fmt.Sprintf("wal-%d", i), Rev: refRevToken(1, formatBody(n)), Body: formatBody(n)}
		want[doc.ID] = doc
		wal = append(wal, refFrame(refEncodeSet(doc, 4))...)
	}
	over := Doc{ID: "snap-1", Rev: refRevToken(3, []byte("new")), Body: []byte("new")}
	want[over.ID] = over
	wal = append(wal, refFrame(refEncodeSet(over, 4))...)
	wal = append(wal, refFrame(refEncodeFence(8))...)
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	db, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if st.SnapshotDocs != len(formatBodies) || st.WALRecords != len(formatBodies)+2 || st.TruncatedTail {
		t.Fatalf("stats = %+v", st)
	}
	if seq := db.Seq(); seq != 40+uint64(len(formatBodies))+1 {
		t.Fatalf("Seq = %d, want %d", seq, 40+len(formatBodies)+1)
	}
	if fence := db.Fence(); fence != 8 {
		t.Fatalf("Fence = %d, want 8", fence)
	}
	checkDocs(t, db, want)
}

// checkDocs fails unless db holds exactly want.
func checkDocs(t *testing.T, db *DB, want map[string]Doc) {
	t.Helper()
	if db.Len() != len(want) {
		t.Fatalf("%d docs, want %d", db.Len(), len(want))
	}
	for id, w := range want {
		got, err := db.Get(id)
		if err != nil || got.Rev != w.Rev || !bytes.Equal(got.Body, w.Body) {
			t.Fatalf("%s = rev %q, %d B, %v; want rev %q, %d B", id, got.Rev, len(got.Body), err, w.Rev, len(w.Body))
		}
	}
}

// walPast returns the frames of records whose sizes put frame
// boundaries on both sides of every read-buffer boundary up to
// 3 × walBufSize, plus each frame's end offset.
func walPast() (data []byte, ends []int64) {
	for i := 0; len(data) < 3*walBufSize; i++ {
		n := []int{900, 5000, 13, walBufSize / 3, 0}[i%5]
		data = appendFrame(data, formatBody(n+i))
		ends = append(ends, int64(len(data)))
	}
	return data, ends
}

// pastReadBuffer is a fuzz seed: a valid WAL prefix longer than the
// read buffer, torn three bytes past its second boundary.
func pastReadBuffer() []byte {
	data, _ := walPast()
	return data[:2*walBufSize+3]
}

// bigSnapshot is a fuzz seed: a valid snapshot whose frames cross the
// 64 KiB buffer, one of them larger than it.
func bigSnapshot() []byte {
	snap := appendHeaderFrame(nil, 3, 1)
	for i, n := range []int{40 << 10, 40 << 10, walBufSize + 5, 10} {
		snap = appendSetFrame(snap, Doc{ID: fmt.Sprintf("d%d", i), Rev: revToken(1, nil), Body: formatBody(n)}, 0)
	}
	return snap
}

// A WAL whose valid prefix is longer than the read buffer, torn at
// offsets on both sides of a buffer boundary, is cut exactly after its
// last whole frame, and the next append lands right there.
func TestWALTornTailPastReadBuffer(t *testing.T) {
	data, ends := walPast()
	// framesBefore returns how many frames end at or before off.
	framesBefore := func(off int64) int {
		k := 0
		for k < len(ends) && ends[k] <= off {
			k++
		}
		return k
	}
	straddle := 0 // the first frame that crosses a buffer boundary
	for k := 1; k < len(ends); k++ {
		if ends[k-1] < walBufSize && ends[k] > walBufSize {
			straddle = k
			break
		}
	}
	if straddle == 0 {
		t.Fatal("no frame straddles the read buffer")
	}
	cases := map[string][]byte{
		"cut at the buffer boundary":         data[:walBufSize],
		"cut just past the buffer boundary":  data[:walBufSize+3],
		"cut in a header after the boundary": data[:ends[straddle]+5],
		"cut at the second boundary":         data[:2*walBufSize+1],
		"cut one byte short of the end":      data[:len(data)-1],
		"garbage after the last frame":       append(append([]byte(nil), data...), 0, 0, 0, 9, 1),
	}
	corrupt := append([]byte(nil), data...)
	corrupt[walBufSize] ^= 0xFF // inside the straddling frame's payload
	cases["checksum broken across the boundary"] = corrupt
	for name, file := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			k := framesBefore(int64(len(file)))
			if name == "checksum broken across the boundary" {
				k = straddle
			}
			var valid int64
			if k > 0 {
				valid = ends[k-1]
			}
			w, recs, truncated := replayAll(t, path, WALOptions{Fsync: FsyncNever})
			if !truncated || len(recs) != k || w.Records() != k || w.Size() != valid {
				w.Close()
				t.Fatalf("truncated=%v records=%d/%d size=%d; want true, %d records, %d bytes",
					truncated, len(recs), w.Records(), w.Size(), k, valid)
			}
			if err := w.Append([]byte("next")); err != nil {
				t.Fatal(err)
			}
			w.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := appendFrame(append([]byte(nil), data[:valid]...), []byte("next")); !bytes.Equal(got, want) {
				t.Fatalf("after the append the log is %d B, want the %d B prefix plus one frame", len(got), valid)
			}
		})
	}
}

// A snapshot whose frames straddle the 64 KiB write buffer, including
// documents larger than the buffer, round-trips through CompactNow and
// Recover.
func TestSnapshotStraddlesWriteBuffer(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, memOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Doc{}
	for i := 0; i < 40; i++ {
		n := []int{3000, 17, walBufSize - 1, 0, walBufSize, 200 << 10, 9000}[i%7]
		id := fmt.Sprintf("doc-%d", i)
		rev, err := db.ForceFenced(uint64(1+i/10), id, formatBody(n+i))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = Doc{ID: id, Rev: rev, Body: formatBody(n + i)}
	}
	seq, fence := db.Seq(), db.Fence()
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st.SnapshotDocs != len(want) || st.WALRecords != 0 || st.TruncatedTail {
		t.Fatalf("stats = %+v, want %d snapshot docs and an empty log", st, len(want))
	}
	if db2.Seq() != seq || db2.Fence() != fence {
		t.Fatalf("Seq, Fence = %d, %d; want %d, %d", db2.Seq(), db2.Fence(), seq, fence)
	}
	checkDocs(t, db2, want)
}

// An in-memory store encodes no WAL record: a write allocates the body
// copy and the revision string, nothing else. A durable store under
// FsyncNever allocates no more, and a warm WAL append allocates nothing.
func TestDurableWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	body := make([]byte, 1024)
	mem := NewDB()
	mem.Force("k", body)
	memAllocs := testing.AllocsPerRun(200, func() { mem.Force("k", body) })
	if memAllocs != 2 {
		t.Fatalf("in-memory Force allocates %.1f, want 2 (body copy + rev)", memAllocs)
	}
	if a := testing.AllocsPerRun(200, func() { mem.ForceFenced(3, "k", body) }); a != 2 {
		t.Fatalf("in-memory ForceFenced allocates %.1f, want 2 (body copy + rev)", a)
	}

	db, _, err := OpenDurable(t.TempDir(), memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.ForceFenced(3, "k", body)
	if a := testing.AllocsPerRun(200, func() { db.ForceFenced(3, "k", body) }); a > memAllocs {
		t.Fatalf("durable ForceFenced allocates %.1f, the in-memory one %.1f", a, memAllocs)
	}

	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), WALOptions{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Append(body)
	if a := testing.AllocsPerRun(200, func() { w.Append(body) }); a != 0 {
		t.Fatalf("warm WAL.Append allocates %.1f, want 0", a)
	}
}

// One record over walKeepBuf does not pin its buffer; later appends
// still work.
func TestWALAppendDropsOversizedBuffer(t *testing.T) {
	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), WALOptions{Fsync: FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, 2*walKeepBuf)); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > walKeepBuf {
		t.Fatalf("append buffer kept at %d B after a %d B record", cap(w.buf), 2*walKeepBuf)
	}
	if err := w.Append([]byte("small")); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 || w.Size() != int64(2*walHeaderSize+2*walKeepBuf+5) {
		t.Fatalf("records=%d size=%d", w.Records(), w.Size())
	}
}

// Compaction allocates per snapshot, not per document: a store ten
// times larger costs the same number of allocations.
func TestSnapshotCompactAllocsIndependentOfDocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	compactAllocs := func(docs int) float64 {
		db, _, err := OpenDurable(t.TempDir(), memOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		body := make([]byte, 64)
		for i := 0; i < docs; i++ {
			if _, err := db.Force(fmt.Sprintf("doc-%d", i), body); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := db.CompactNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := compactAllocs(1000), compactAllocs(10000)
	if d := large - small; d > 4 || d < -4 {
		t.Fatalf("CompactNow allocates %.0f over 1 000 docs and %.0f over 10 000", small, large)
	}
}
