package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"hivemind/internal/metrics"
)

// This file implements the append-only write-ahead log that makes the
// control-plane store durable. Every record is length-prefixed and
// CRC32C-framed:
//
//	uint32 payloadLen | uint32 crc32c(payload) | payload
//
// A crash can tear the last record (short write) or leave trailing
// garbage (a reused block): on open the WAL scans forward, validates
// each frame, and truncates the file back to the longest valid prefix
// — recovery never loses acknowledged records under FsyncAlways, and
// under the relaxed policies it loses at most the unsynced suffix, in
// whole-record units. Torn or corrupt tails are counted, not fatal.

// crcTable is the Castagnoli polynomial table (CRC32C, the same framing
// checksum RocksDB and etcd's WAL use — hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: an acknowledged write
	// survives a machine crash. The safest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch fsyncs every walSyncEvery appends (and on
	// Sync/Close): a machine crash loses at most the unsynced batch, a
	// process crash loses nothing (the OS holds the pages).
	FsyncBatch
	// FsyncNever leaves syncing to the OS: a process crash loses
	// nothing, a machine crash may lose the OS write-back window.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// WALOptions tunes one write-ahead log.
type WALOptions struct {
	// Fsync is the durability policy for appends.
	Fsync FsyncPolicy
	// Monitor, when non-nil, receives wal-append/fsync/truncated-tail
	// counters.
	Monitor *metrics.Registry
}

// walSyncEvery is the FsyncBatch batch size.
const walSyncEvery = 64

// walHeaderSize is the per-record framing overhead.
const walHeaderSize = 8

const (
	walBufSize = 64 << 10 // recovery reads and snapshots write through one such buffer
	walKeepBuf = 1 << 20  // a larger append buffer is dropped, not kept for the next append
)

// maxWALRecord bounds a single record (a length prefix beyond this is
// treated as a corrupt tail, not an allocation request).
const maxWALRecord = 64 << 20

// ErrCorruptRecord reports a frame whose checksum or length failed
// validation mid-file (not at the recoverable tail).
var ErrCorruptRecord = errors.New("store: corrupt wal record")

// RecordTooLargeError reports an append refused because its record is
// longer than maxWALRecord: recovery would read the frame as a torn
// tail and drop it along with every record after it.
type RecordTooLargeError struct {
	Len int // the refused record's length in bytes
}

func (e *RecordTooLargeError) Error() string {
	return fmt.Sprintf("store: wal record of %d bytes exceeds the %d-byte limit", e.Len, maxWALRecord)
}

// WAL is an append-only, CRC-framed log file. Appends are not
// internally locked — the owning DB serializes them under its mutex.
type WAL struct {
	f        *os.File
	opts     WALOptions
	buf      []byte // the frame being appended, reused across appends
	size     int64
	records  int
	unsynced int
}

// OpenWAL opens (creating if absent) the log at path, replays every
// valid record through apply in append order, truncates any torn or
// corrupt tail, and returns the WAL positioned for appending.
// truncated reports whether a tail had to be cut; apply must not keep rec.
func OpenWAL(path string, opts WALOptions, apply func(rec []byte) error) (w *WAL, truncated bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	w = &WAL{f: f, opts: opts}
	valid, records, truncated, err := scanWAL(f, apply)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	if truncated {
		if terr := f.Truncate(valid); terr != nil {
			f.Close()
			return nil, false, fmt.Errorf("store: truncating torn wal tail: %w", terr)
		}
		w.opts.Monitor.Inc(MetricWALTruncatedTail)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, false, err
	}
	w.size = valid
	w.records = records
	return w, truncated, nil
}

// scanWAL walks the log from the start, applying each valid record and
// reporting the byte offset of the longest valid prefix. Any malformed
// frame — short header, absurd length, short payload, checksum
// mismatch — marks the tail torn; everything before it is kept. A
// length longer than the rest of the file is torn before any buffer is
// allocated for it. Payloads reuse one slice, read through one buffer.
func scanWAL(f *os.File, apply func(rec []byte) error) (valid int64, records int, truncated bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, false, err
	}
	// Count bytes consumed from the buffer, never its read-ahead.
	r := &byteCounter{r: bufio.NewReaderSize(f, walBufSize)}
	var hdr [walHeaderSize]byte
	var payload []byte
	for {
		if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
			// Clean EOF ends the scan; a partial header is a torn tail.
			return valid, records, rerr != io.EOF, nil
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxWALRecord || int64(n) > fi.Size()-r.n {
			return valid, records, true, nil
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			return valid, records, true, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return valid, records, true, nil
		}
		if apply != nil {
			if aerr := apply(payload); aerr != nil {
				return 0, 0, false, aerr
			}
		}
		valid = r.n
		records++
	}
}

// byteCounter counts bytes consumed from the underlying reader so the
// scan knows the offset of the last fully valid frame.
type byteCounter struct {
	r io.Reader
	n int64
}

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// openFrame reserves a frame header at the end of dst. The caller
// appends one record after it and passes start to sealFrame.
func openFrame(dst []byte) (buf []byte, start int) {
	return append(dst, make([]byte, walHeaderSize)...), len(dst)
}

// sealFrame fills in the header reserved at start with the length and
// CRC32C of everything appended after it.
func sealFrame(buf []byte, start int) []byte {
	rec := buf[start+walHeaderSize:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(rec)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(rec, crcTable))
	return buf
}

// appendFrame appends rec in its length+CRC32C frame.
func appendFrame(dst, rec []byte) []byte {
	dst, start := openFrame(dst)
	return sealFrame(append(dst, rec...), start)
}

// Append frames rec and writes it to the log, syncing per the policy.
// The record is durable (to the policy's guarantee) when Append
// returns. A record longer than maxWALRecord is refused with a
// *RecordTooLargeError before anything is written.
func (w *WAL) Append(rec []byte) error {
	return w.writeFrame(len(rec), func(dst []byte) []byte { return appendFrame(dst, rec) })
}

// writeFrame writes the one frame enc appends to the WAL's reused
// buffer. n is the record's length, checked before anything is encoded.
func (w *WAL) writeFrame(n int, enc func(dst []byte) []byte) error {
	if n > maxWALRecord {
		return &RecordTooLargeError{Len: n}
	}
	w.buf = enc(w.buf[:0])
	wrote, err := w.f.Write(w.buf)
	if cap(w.buf) > walKeepBuf {
		w.buf = nil
	}
	if err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size += int64(wrote)
	w.records++
	w.unsynced++
	w.opts.Monitor.Inc(MetricWALAppend)
	switch w.opts.Fsync {
	case FsyncAlways:
		return w.Sync()
	case FsyncBatch:
		if w.unsynced >= walSyncEvery {
			return w.Sync()
		}
	}
	return nil
}

// Sync flushes outstanding appends to stable storage.
func (w *WAL) Sync() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	w.unsynced = 0
	w.opts.Monitor.Inc(MetricWALFsync)
	return nil
}

// Reset truncates the log to empty — the compaction step after a
// snapshot has captured everything the log held.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = 0
	w.records = 0
	w.unsynced = 0
	return nil
}

// Size returns the log's current byte length.
func (w *WAL) Size() int64 { return w.size }

// Records returns how many records the log currently holds (replayed +
// appended since the last Reset).
func (w *WAL) Records() int { return w.records }

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
