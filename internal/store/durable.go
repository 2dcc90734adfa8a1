package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hivemind/internal/metrics"
)

// This file makes DB durable: mutations are written ahead to a WAL
// (wal.go) as post-state records, periodic snapshots capture the full
// live state, and compaction truncates the log so recovery cost is
// bounded by live state, not history. Recover(dir) rebuilds a DB from
// snapshot + WAL suffix — a restarted controller process re-opens its
// directory and finds every acknowledged checkpoint still there, which
// is what lets CheckpointLog.Orphans feed the gateway's exactly-once
// re-dispatch after a crash instead of only after a failover.
//
// Records are post-state, not operations: a set record carries the
// resulting (id, rev, body) rather than "apply this Put", so replay is
// idempotent and a WAL suffix can safely be replayed over a snapshot
// that already contains some of its effects (the crash window between
// snapshot rename and log truncation).

// Store metric names.
const (
	// MetricWALAppend counts records appended to the WAL.
	MetricWALAppend = "store-wal-append"
	// MetricWALFsync counts fsync calls the WAL issued.
	MetricWALFsync = "store-wal-fsync"
	// MetricWALTruncatedTail counts torn/corrupt WAL tails cut on open.
	MetricWALTruncatedTail = "store-wal-truncated-tail"
	// MetricSnapshot counts snapshot+compaction cycles.
	MetricSnapshot = "store-snapshot"
	// MetricSnapshotLatency observes snapshot+compaction seconds.
	MetricSnapshotLatency = "store-snapshot-latency"
	// MetricRecoverLatency observes Recover(dir) seconds.
	MetricRecoverLatency = "store-recover-latency"
	// MetricFencedWrite counts mutations rejected for a stale fence
	// token (a deposed primary scribbling after a partition healed).
	MetricFencedWrite = "store-fenced-write"
	// MetricCorruptCheckpoint counts checkpoint records Orphans
	// quarantined instead of recovering (corrupt JSON under ckpt/).
	MetricCorruptCheckpoint = "store-corrupt-checkpoints"
)

// Durable-directory file names.
const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.db"
	snapshotTmpName  = "snapshot.db.tmp"
)

// record opcodes (first payload byte of every WAL/snapshot record).
const (
	recSet    = 1 // post-state of a created/updated document
	recDel    = 2 // document removal
	recFence  = 3 // fence raised without a document write (promotion)
	recHeader = 4 // snapshot header: seq + fence at snapshot time
)

// snapshotMagic guards the snapshot header record.
var snapshotMagic = []byte("HMSNAP1")

// DurableOptions tunes a durable store directory.
type DurableOptions struct {
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SyncEvery is the FsyncBatch batch size (<=0: 64).
	SyncEvery int
	// CompactEvery triggers snapshot+compaction after this many WAL
	// records (<=0: 4096; negative via NoAutoCompact for manual-only).
	CompactEvery int
	// Monitor, when non-nil, receives the store-* counters and
	// latency observations from open onward.
	Monitor *metrics.Registry
}

// NoAutoCompact disables record-count-triggered compaction; only
// explicit CompactNow calls snapshot.
const NoAutoCompact = -1

// DefaultDurableOptions returns the safe defaults: fsync every append,
// compact every 4096 records.
func DefaultDurableOptions() DurableOptions {
	return DurableOptions{Fsync: FsyncAlways, CompactEvery: 4096}
}

// RecoverStats reports what rebuilding a DB from a directory cost —
// the quantities the snapshot-mid-traffic acceptance test asserts are
// bounded by live state, not history.
type RecoverStats struct {
	// SnapshotDocs is how many documents the snapshot restored.
	SnapshotDocs int
	// WALRecords is how many log records were replayed on top.
	WALRecords int
	// TruncatedTail reports whether a torn/corrupt WAL tail was cut.
	TruncatedTail bool
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// OpenDurable opens (creating if needed) a durable store rooted at
// dir: the snapshot is loaded, the WAL suffix replayed (torn tails
// truncated), and every subsequent mutation is write-ahead logged.
func OpenDurable(dir string, opts DurableOptions) (*DB, RecoverStats, error) {
	start := time.Now()
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoverStats{}, err
	}
	db := NewDB()
	db.dir = dir
	db.dopts = opts
	db.SetMonitor(opts.Monitor)

	var stats RecoverStats
	n, err := db.loadSnapshot(filepath.Join(dir, snapshotFileName))
	if err != nil {
		return nil, RecoverStats{}, err
	}
	stats.SnapshotDocs = n

	wal, truncated, err := OpenWAL(filepath.Join(dir, walFileName), WALOptions{
		Fsync:     opts.Fsync,
		SyncEvery: opts.SyncEvery,
		Monitor:   opts.Monitor,
	}, db.applyRecord)
	if err != nil {
		return nil, RecoverStats{}, err
	}
	stats.WALRecords = wal.Records()
	stats.TruncatedTail = truncated
	db.wal = wal
	db.sinceCompact = wal.Records()

	stats.Elapsed = time.Since(start)
	opts.Monitor.Observe(MetricRecoverLatency, stats.Elapsed.Seconds())
	return db, stats, nil
}

// Recover rebuilds a DB from a durable directory with the default
// options — the crash-restart path a controller process takes when it
// comes back up on its old state.
func Recover(dir string) (*DB, RecoverStats, error) {
	return OpenDurable(dir, DefaultDurableOptions())
}

// applyRecord replays one WAL record into the in-memory state.
func (db *DB) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("%w: empty record", ErrCorruptRecord)
	}
	switch rec[0] {
	case recSet:
		doc, token, err := decodeSet(rec)
		if err != nil {
			return err
		}
		db.docs[doc.ID] = doc
		db.seq++
		if token > db.fenceTerm {
			db.fenceTerm = token
		}
	case recDel:
		id, token, err := decodeDel(rec)
		if err != nil {
			return err
		}
		delete(db.docs, id)
		db.seq++
		if token > db.fenceTerm {
			db.fenceTerm = token
		}
	case recFence:
		if len(rec) != 9 {
			return fmt.Errorf("%w: fence record length %d", ErrCorruptRecord, len(rec))
		}
		if token := binary.BigEndian.Uint64(rec[1:9]); token > db.fenceTerm {
			db.fenceTerm = token
		}
	case recHeader:
		// Snapshot headers only belong in snapshot files; tolerate one
		// in the WAL (it restores seq/fence idempotently).
		seq, fence, err := decodeHeader(rec)
		if err != nil {
			return err
		}
		if seq > db.seq {
			db.seq = seq
		}
		if fence > db.fenceTerm {
			db.fenceTerm = fence
		}
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrCorruptRecord, rec[0])
	}
	return nil
}

// encodeSet builds a post-state set record.
func encodeSet(doc Doc, token uint64) []byte {
	rec := make([]byte, 0, 1+4+len(doc.ID)+4+len(doc.Rev)+4+len(doc.Body)+8)
	rec = append(rec, recSet)
	rec = appendBytes(rec, []byte(doc.ID))
	rec = appendBytes(rec, []byte(doc.Rev))
	rec = appendBytes(rec, doc.Body)
	return binary.BigEndian.AppendUint64(rec, token)
}

// decodeSet parses a set record into the stored document and token.
func decodeSet(rec []byte) (Doc, uint64, error) {
	p := rec[1:]
	id, p, err := takeBytes(p)
	if err != nil {
		return Doc{}, 0, err
	}
	rev, p, err := takeBytes(p)
	if err != nil {
		return Doc{}, 0, err
	}
	body, p, err := takeBytes(p)
	if err != nil {
		return Doc{}, 0, err
	}
	if len(p) != 8 {
		return Doc{}, 0, fmt.Errorf("%w: set record trailer", ErrCorruptRecord)
	}
	return Doc{ID: string(id), Rev: string(rev), Body: append([]byte(nil), body...)},
		binary.BigEndian.Uint64(p), nil
}

// encodeDel builds a removal record.
func encodeDel(id string, token uint64) []byte {
	rec := make([]byte, 0, 1+4+len(id)+8)
	rec = append(rec, recDel)
	rec = appendBytes(rec, []byte(id))
	return binary.BigEndian.AppendUint64(rec, token)
}

// decodeDel parses a removal record.
func decodeDel(rec []byte) (string, uint64, error) {
	id, p, err := takeBytes(rec[1:])
	if err != nil {
		return "", 0, err
	}
	if len(p) != 8 {
		return "", 0, fmt.Errorf("%w: del record trailer", ErrCorruptRecord)
	}
	return string(id), binary.BigEndian.Uint64(p), nil
}

// encodeFence builds a fence-raise record (a promotion with no write).
func encodeFence(token uint64) []byte {
	rec := make([]byte, 9)
	rec[0] = recFence
	binary.BigEndian.PutUint64(rec[1:9], token)
	return rec
}

// encodeHeader builds the snapshot header record.
func encodeHeader(seq, fence uint64) []byte {
	rec := make([]byte, 0, 1+len(snapshotMagic)+16)
	rec = append(rec, recHeader)
	rec = append(rec, snapshotMagic...)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	return binary.BigEndian.AppendUint64(rec, fence)
}

// decodeHeader parses the snapshot header record.
func decodeHeader(rec []byte) (seq, fence uint64, err error) {
	p := rec[1:]
	if len(p) != len(snapshotMagic)+16 || string(p[:len(snapshotMagic)]) != string(snapshotMagic) {
		return 0, 0, fmt.Errorf("%w: snapshot header", ErrCorruptRecord)
	}
	p = p[len(snapshotMagic):]
	return binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(p[8:16]), nil
}

// appendBytes appends a u32 length prefix + bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// takeBytes splits a u32-length-prefixed field off p.
func takeBytes(p []byte) (field, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: short field prefix", ErrCorruptRecord)
	}
	n := binary.BigEndian.Uint32(p[:4])
	if uint32(len(p)-4) < n {
		return nil, nil, fmt.Errorf("%w: short field", ErrCorruptRecord)
	}
	return p[4 : 4+n], p[4+n:], nil
}

// loadSnapshot restores the snapshot file into the (empty) DB,
// returning how many documents it held. A missing file is a fresh
// directory, not an error.
func (db *DB) loadSnapshot(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	docs := 0
	sawHeader := false
	apply := func(rec []byte) error {
		if !sawHeader {
			if len(rec) == 0 || rec[0] != recHeader {
				return fmt.Errorf("%w: snapshot missing header", ErrCorruptRecord)
			}
			seq, fence, herr := decodeHeader(rec)
			if herr != nil {
				return herr
			}
			db.seq, db.fenceTerm = seq, fence
			sawHeader = true
			return nil
		}
		doc, _, derr := decodeSet(rec)
		if derr != nil {
			return derr
		}
		db.docs[doc.ID] = doc
		docs++
		return nil
	}
	// The snapshot was fsynced before its atomic rename, so a torn tail
	// here is real corruption, not a crash artifact.
	if _, _, truncated, serr := scanWAL(f, apply); serr != nil {
		return 0, serr
	} else if truncated {
		return 0, fmt.Errorf("%w: snapshot tail", ErrCorruptRecord)
	}
	return docs, nil
}

// CompactNow snapshots the full live state and truncates the WAL, so
// the next recovery replays live documents instead of history. Safe to
// call concurrently with mutations (it holds the store lock).
func (db *DB) CompactNow() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

// compactLocked writes the snapshot (tmp + fsync + atomic rename) and
// resets the WAL. Caller holds db.mu.
func (db *DB) compactLocked() error {
	if db.wal == nil {
		return errors.New("store: not a durable store")
	}
	start := time.Now()
	tmp := filepath.Join(db.dir, snapshotTmpName)
	final := filepath.Join(db.dir, snapshotFileName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	write := func(rec []byte) error {
		_, werr := f.Write(frame(rec))
		return werr
	}
	if err := write(encodeHeader(db.seq, db.fenceTerm)); err != nil {
		f.Close()
		return err
	}
	for _, doc := range db.docs {
		if err := write(encodeSet(doc, 0)); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// Crash window: snapshot renamed but WAL not yet truncated. Replay
	// of the old WAL over the new snapshot is harmless — records are
	// post-state, so re-applying them reproduces the same documents.
	if err := db.wal.Reset(); err != nil {
		return err
	}
	db.sinceCompact = 0
	m := db.monitor()
	m.Inc(MetricSnapshot)
	m.Observe(MetricSnapshotLatency, time.Since(start).Seconds())
	return nil
}

// maybeCompactLocked runs auto-compaction when the WAL has grown past
// the configured record budget. Caller holds db.mu.
func (db *DB) maybeCompactLocked() error {
	if db.wal == nil || db.dopts.CompactEvery <= 0 {
		return nil
	}
	if db.sinceCompact < db.dopts.CompactEvery {
		return nil
	}
	return db.compactLocked()
}

// appendRecordLocked writes one record ahead of the in-memory apply.
// Caller holds db.mu; a nil WAL (pure in-memory store) is a no-op.
func (db *DB) appendRecordLocked(rec []byte) error {
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Append(rec); err != nil {
		return err
	}
	db.sinceCompact++
	return nil
}

// WALRecords returns how many records the WAL holds since the last
// compaction (0 for an in-memory store).
func (db *DB) WALRecords() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Records()
}

// WALSize returns the WAL's byte length (0 for an in-memory store).
func (db *DB) WALSize() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// Dir returns the durable directory ("" for an in-memory store).
func (db *DB) Dir() string { return db.dir }

// Sync forces outstanding WAL appends to stable storage regardless of
// the fsync policy.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	return db.wal.Sync()
}

// Close syncs and closes the WAL (no-op for an in-memory store). The
// DB must not be used after Close.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.wal = nil
	return err
}
