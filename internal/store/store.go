// Package store implements the intermediate-data store serverless
// functions use to exchange data. OpenWhisk routes inter-function data
// through CouchDB (§3.3): "for two functions to exchange data they have
// to go through the OpenWhisk controller to get a handle to a database
// object". This package provides
//
//   - DB: a real, embedded, revisioned document store with CouchDB-style
//     optimistic concurrency (revision tokens, conflict errors), used by
//     the in-process function runtime and directly testable; and
//   - LatencyModel: the access-cost model the simulator charges for each
//     protocol in Fig. 6c (CouchDB vs direct RPC vs in-memory), plus the
//     FPGA remote-memory fast path of §4.4.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hivemind/internal/metrics"
)

// Common errors.
var (
	ErrNotFound = errors.New("store: document not found")
	ErrConflict = errors.New("store: revision conflict")
	// ErrFenced is the root of every fence rejection, so callers can
	// errors.Is their way to "this writer's term is stale".
	ErrFenced = errors.New("store: fenced write")
)

// FencedError rejects a mutation whose fence token (the writer's
// controller term) is older than the highest term the store has seen.
// It is how a deposed primary — healed from a partition with an
// in-flight chain still running — is prevented from scribbling stale
// state over a newer primary's writes: the new leader's first write
// (or explicit RaiseFence on promotion) advances the fence, and every
// later stale-term mutation fails here instead of landing.
type FencedError struct {
	// Token is the writer's stale term.
	Token uint64
	// Fence is the store's current fence (the newest term seen).
	Fence uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	return fmt.Sprintf("store: fenced write: token term %d behind fence term %d", e.Token, e.Fence)
}

// Is makes errors.Is(err, ErrFenced) true for FencedError values.
func (e *FencedError) Is(target error) bool { return target == ErrFenced }

// Injector is the fault-injection hook consulted before each store
// operation (ops "put/<id>", "force/<id>", "get/<id>", "delete/<id>"):
// a non-nil error stands in for an unavailable or refusing database
// node, so the live data plane can be chaos-tested. chaos.Injector
// satisfies it.
type Injector interface {
	Fault(op string) error
}

// Doc is a stored document.
type Doc struct {
	ID   string
	Rev  string
	Body []byte
}

// DB is a revisioned document store, safe for concurrent use. By
// default it is purely in-memory; OpenDurable attaches a write-ahead
// log and snapshot directory so the same store survives a process
// crash (durable.go).
type DB struct {
	mu   sync.RWMutex
	docs map[string]Doc
	seq  uint64

	// fenceTerm is the highest fence token (controller term) any
	// mutation has carried; stale-token writes are rejected.
	fenceTerm uint64

	// Durable-store state (nil/zero for the in-memory configuration).
	wal          *WAL
	dir          string
	dopts        DurableOptions
	sinceCompact int

	// injMu guards the aux hooks (fault injector, metrics sink), which
	// are consulted both under and outside the main mutex.
	injMu sync.RWMutex
	inj   Injector
	mon   *metrics.Registry
}

// NewDB returns an empty in-memory store.
func NewDB() *DB {
	return &DB{docs: make(map[string]Doc)}
}

// SetMonitor installs (or, with nil, removes) the metrics registry the
// store-* counters report into.
func (db *DB) SetMonitor(m *metrics.Registry) {
	db.injMu.Lock()
	defer db.injMu.Unlock()
	db.mon = m
}

// monitor returns the installed metrics registry (nil when unset).
func (db *DB) monitor() *metrics.Registry {
	db.injMu.RLock()
	defer db.injMu.RUnlock()
	return db.mon
}

// SetInjector installs (or, with nil, removes) a fault injector.
func (db *DB) SetInjector(inj Injector) {
	db.injMu.Lock()
	defer db.injMu.Unlock()
	db.inj = inj
}

// fault consults the injector for one operation.
func (db *DB) fault(op string) error {
	db.injMu.RLock()
	inj := db.inj
	db.injMu.RUnlock()
	if inj == nil {
		return nil
	}
	return inj.Fault(op)
}

func revToken(gen int, body []byte) string {
	h := sha256.Sum256(body)
	return fmt.Sprintf("%d-%s", gen, hex.EncodeToString(h[:6]))
}

func revGen(rev string) int {
	i := strings.IndexByte(rev, '-')
	if i <= 0 {
		return 0
	}
	g, err := strconv.Atoi(rev[:i])
	if err != nil {
		return 0
	}
	return g
}

// checkFenceLocked validates a mutation's fence token against the
// highest term seen, advancing the fence for current-term writers.
// Token 0 means "unfenced" (a caller outside the replicated control
// plane) and always passes without moving the fence. Caller holds mu.
func (db *DB) checkFenceLocked(token uint64) error {
	if token == 0 {
		return nil
	}
	if token < db.fenceTerm {
		db.monitor().Inc(MetricFencedWrite)
		return &FencedError{Token: token, Fence: db.fenceTerm}
	}
	db.fenceTerm = token
	return nil
}

// Fence returns the highest fence token any mutation has carried.
func (db *DB) Fence() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.fenceTerm
}

// RaiseFence advances the fence to term without writing a document — a
// newly promoted primary calls this before serving, so a deposed
// leader's stale-term writes are rejected even before the new leader's
// first real mutation lands. On a durable store the raise itself is
// logged, so the fence survives a crash.
func (db *DB) RaiseFence(term uint64) error {
	if term == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if term <= db.fenceTerm {
		return nil
	}
	if err := db.appendRecordLocked(encodeFence(term)); err != nil {
		return err
	}
	db.fenceTerm = term
	return db.maybeCompactLocked()
}

// Put creates or updates a document. For updates, rev must match the
// stored revision or ErrConflict is returned; for creates, rev must be
// empty. It returns the new revision.
func (db *DB) Put(id string, rev string, body []byte) (string, error) {
	return db.PutFenced(0, id, rev, body)
}

// PutFenced is Put with a fence token (the writer's controller term):
// a token behind the store's fence fails with FencedError before any
// state changes. Token 0 bypasses fencing.
func (db *DB) PutFenced(token uint64, id string, rev string, body []byte) (string, error) {
	if id == "" {
		return "", errors.New("store: empty document id")
	}
	if err := db.fault("put/" + id); err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkFenceLocked(token); err != nil {
		return "", err
	}
	cur, exists := db.docs[id]
	if exists {
		if rev != cur.Rev {
			return "", ErrConflict
		}
	} else if rev != "" {
		return "", ErrConflict
	}
	gen := 1
	if exists {
		gen = revGen(cur.Rev) + 1
	}
	bodyCopy := make([]byte, len(body))
	copy(bodyCopy, body)
	newRev := revToken(gen, bodyCopy)
	doc := Doc{ID: id, Rev: newRev, Body: bodyCopy}
	if err := db.appendRecordLocked(encodeSet(doc, token)); err != nil {
		return "", err
	}
	db.docs[id] = doc
	db.seq++
	if err := db.maybeCompactLocked(); err != nil {
		return "", err
	}
	return newRev, nil
}

// Force writes a document unconditionally (last-writer-wins), returning
// the new revision. Used for idempotent outputs where conflicts are
// benign.
func (db *DB) Force(id string, body []byte) (string, error) {
	return db.ForceFenced(0, id, body)
}

// ForceFenced is Force with a fence token; see PutFenced.
func (db *DB) ForceFenced(token uint64, id string, body []byte) (string, error) {
	if err := db.fault("force/" + id); err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkFenceLocked(token); err != nil {
		return "", err
	}
	gen := 1
	if cur, ok := db.docs[id]; ok {
		gen = revGen(cur.Rev) + 1
	}
	bodyCopy := make([]byte, len(body))
	copy(bodyCopy, body)
	rev := revToken(gen, bodyCopy)
	doc := Doc{ID: id, Rev: rev, Body: bodyCopy}
	if err := db.appendRecordLocked(encodeSet(doc, token)); err != nil {
		return "", err
	}
	db.docs[id] = doc
	db.seq++
	if err := db.maybeCompactLocked(); err != nil {
		return "", err
	}
	return rev, nil
}

// Get fetches a document by id.
func (db *DB) Get(id string) (Doc, error) {
	if err := db.fault("get/" + id); err != nil {
		return Doc{}, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.docs[id]
	if !ok {
		return Doc{}, ErrNotFound
	}
	body := make([]byte, len(d.Body))
	copy(body, d.Body)
	d.Body = body
	return d, nil
}

// Delete removes a document; rev must match.
func (db *DB) Delete(id, rev string) error {
	return db.DeleteFenced(0, id, rev)
}

// DeleteFenced is Delete with a fence token; see PutFenced.
func (db *DB) DeleteFenced(token uint64, id, rev string) error {
	if err := db.fault("delete/" + id); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkFenceLocked(token); err != nil {
		return err
	}
	cur, ok := db.docs[id]
	if !ok {
		return ErrNotFound
	}
	if rev != cur.Rev {
		return ErrConflict
	}
	if err := db.appendRecordLocked(encodeDel(id, token)); err != nil {
		return err
	}
	delete(db.docs, id)
	db.seq++
	return db.maybeCompactLocked()
}

// Len returns the number of stored documents.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.docs)
}

// Seq returns the store's update sequence number.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// Keys returns all document ids (unordered).
func (db *DB) Keys() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.docs))
	for k := range db.docs {
		out = append(out, k)
	}
	return out
}

// Protocol selects how dependent functions exchange intermediate data —
// the three regimes of Fig. 6c plus HiveMind's remote-memory fabric.
type Protocol int

const (
	// ProtoCouchDB is OpenWhisk's default: writer stores the object in
	// the database, reader asks the controller for a handle and fetches.
	ProtoCouchDB Protocol = iota
	// ProtoDirectRPC lets the child call the parent's container directly.
	ProtoDirectRPC
	// ProtoInMemory places the child in the parent's container; the data
	// never moves.
	ProtoInMemory
	// ProtoRemoteMem is HiveMind's FPGA remote-memory access (§4.4):
	// RoCE-style reads of the parent's output through the fabric.
	ProtoRemoteMem
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoCouchDB:
		return "couchdb"
	case ProtoDirectRPC:
		return "rpc"
	case ProtoInMemory:
		return "inmemory"
	case ProtoRemoteMem:
		return "remotemem"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// LatencyModel gives the one-way data-exchange cost charged by the
// simulator for a transfer of a given size under each protocol.
// Calibrated so the Fig. 6c ordering holds: CouchDB ≫ RPC > in-memory,
// with the remote-memory fabric close to in-memory.
type LatencyModel struct {
	// CouchDB: controller round-trip for the handle + two DB operations
	// (write by parent amortised into read path's contention) + payload
	// at DB throughput.
	CouchBaseS   float64 // controller + auth + handle
	CouchPerOpS  float64 // per database operation
	CouchMBps    float64 // payload bandwidth
	RPCBaseS     float64 // direct RPC setup + call overhead
	RPCMBps      float64 // kernel TCP payload bandwidth
	RemoteBaseS  float64 // fabric access setup (§4.4)
	RemoteMBps   float64 // UPI-attached FPGA payload bandwidth
	InMemoryBase float64 // same-container handoff
}

// DefaultLatencyModel returns the calibrated model.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		CouchBaseS:   0.018, // controller hop + auth + handle lookup
		CouchPerOpS:  0.006,
		CouchMBps:    180,
		RPCBaseS:     0.0014,
		RPCMBps:      1100,
		RemoteBaseS:  25e-6,
		RemoteMBps:   9600, // UPI-attached fabric
		InMemoryBase: 2e-6, // pointer handoff in a shared region
	}
}

// ExchangeS returns the data-sharing latency in seconds for moving
// sizeMB between dependent functions under the protocol.
func (m LatencyModel) ExchangeS(p Protocol, sizeMB float64) float64 {
	if sizeMB < 0 {
		sizeMB = 0
	}
	switch p {
	case ProtoCouchDB:
		// handle + write op + read op + 2 payload moves (in and out).
		return m.CouchBaseS + 2*m.CouchPerOpS + 2*sizeMB/m.CouchMBps
	case ProtoDirectRPC:
		return m.RPCBaseS + sizeMB/m.RPCMBps
	case ProtoRemoteMem:
		return m.RemoteBaseS + sizeMB/m.RemoteMBps
	case ProtoInMemory:
		return m.InMemoryBase
	default:
		panic("store: unknown protocol")
	}
}
