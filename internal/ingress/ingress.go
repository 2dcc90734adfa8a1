// Package ingress is the fleet's HTTP job API: the edge-facing front
// door that turns swarm requests into gateway RPCs. POST /do/:job
// submits a job and returns a result id immediately (?then=true blocks
// for the result inline); GET /then/:id polls or blocks for the
// outcome. Identical pending submissions coalesce into one dispatch.
// Result ids ride the durable task layer, so a collected id survives a
// gateway crash: an ingress that never saw the POST can still answer
// the GET from the checkpoint log.
package ingress

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// Dispatcher issues one job RPC. runtime gateways, FailoverClients and
// Linker transports all satisfy it (rpc.Transport's Call is this
// signature).
type Dispatcher interface {
	Call(ctx context.Context, method string, payload []byte) ([]byte, error)
}

// DispatchFunc adapts a function to Dispatcher.
type DispatchFunc func(ctx context.Context, method string, payload []byte) ([]byte, error)

// Call implements Dispatcher.
func (f DispatchFunc) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return f(ctx, method, payload)
}

// maxBody caps request bodies: a larger one is refused with 413.
const maxBody = 1 << 20

// dispatchTimeout bounds each job's dispatch.
const dispatchTimeout = 30 * time.Second

// ResultIDHeader carries the minted result id on every /do response,
// including ?then=true ones whose body is the job output.
const ResultIDHeader = "X-Hivemind-Result-Id"

// Options configures an ingress Server. Dispatcher is required;
// everything else has serviceable defaults.
type Options struct {
	// Dispatcher issues the job RPCs (required).
	Dispatcher Dispatcher
	// Encode wraps a payload with the minted result id before dispatch,
	// so the durable task layer records outputs under the id the client
	// holds (wire to runtime.EncodeTask). nil sends payloads bare —
	// ids then resolve only from this ingress's memory.
	Encode func(id string, payload []byte) []byte
	// Lookup resolves a result id this ingress has no memory of against
	// durable state (wire to Gateway.TaskResult). nil: unknown ids 404.
	Lookup func(id string) ([]byte, bool, error)
	// Monitor receives counters (optional).
	Monitor *metrics.Registry
	// TTL retains completed results for duplicate collection (0: 2m).
	TTL time.Duration
}

// Stats is a snapshot of the ingress counters.
type Stats struct {
	Posted     uint64 // POST /do requests accepted (incl. coalesced)
	Coalesced  uint64 // POSTs that joined an already-pending identical job
	Dispatched uint64 // RPCs actually issued
	Shed       uint64 // jobs rejected by admission control
	Failed     uint64 // jobs failed for any other reason
}

type job struct {
	id      string
	hdr     [1]string // {id}: the ResultIDHeader value, set without allocating
	name    string
	key     coalesceKey
	payload []byte // confirms a key match byte for byte; nil once done

	done    chan struct{}
	body    []byte
	err     error
	expires time.Time
}

// Server is the HTTP job API front-end. It implements http.Handler.
type Server struct {
	opts Options

	idPrefix string // random hex plus "-"; ids append a sequence number
	idSeq    atomic.Uint64

	posted, coalesced, dispatched uint64
	shed, failed                  uint64

	mu        sync.Mutex
	jobs      map[string]*job      // result id → job (pending + TTL'd results)
	pending   map[coalesceKey]*job // in-flight coalescable jobs
	nextSweep time.Time
	closed    bool
}

// NewServer builds an ingress front-end.
func NewServer(opts Options) (*Server, error) {
	if opts.Dispatcher == nil {
		return nil, errors.New("ingress: Options.Dispatcher is required")
	}
	if opts.TTL <= 0 {
		opts.TTL = 2 * time.Minute
	}
	var pfx [4]byte
	if _, err := rand.Read(pfx[:]); err != nil {
		return nil, fmt.Errorf("ingress: minting id prefix: %w", err)
	}
	return &Server{
		opts:     opts,
		idPrefix: hex.EncodeToString(pfx[:]) + "-",
		jobs:     map[string]*job{},
		pending:  map[coalesceKey]*job{},
	}, nil
}

// Close rejects further submissions; in-flight jobs still complete.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Depth reports jobs currently in flight (the live gauge on the debug
// mux).
func (s *Server) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Stats snapshots the ingress counters.
func (s *Server) Stats() Stats {
	return Stats{
		Posted:     atomic.LoadUint64(&s.posted),
		Coalesced:  atomic.LoadUint64(&s.coalesced),
		Dispatched: atomic.LoadUint64(&s.dispatched),
		Shed:       atomic.LoadUint64(&s.shed),
		Failed:     atomic.LoadUint64(&s.failed),
	}
}

// ServeHTTP routes the two-verb job API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case len(r.URL.Path) > len("/do/") && r.URL.Path[:len("/do/")] == "/do/":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleDo(w, r, r.URL.Path[len("/do/"):])
	case len(r.URL.Path) > len("/then/") && r.URL.Path[:len("/then/")] == "/then/":
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		s.handleThen(w, r, r.URL.Path[len("/then/"):])
	default:
		http.NotFound(w, r)
	}
}

// coalesceKey identifies a job submission by name and the FNV-1a 64
// sum of name, a zero byte and the payload. A match is only a
// candidate: submit confirms it by comparing payloads.
type coalesceKey struct {
	name string
	sum  uint64
}

func keyOf(name string, payload []byte) coalesceKey {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	h *= prime64 // the zero separator
	for _, b := range payload {
		h = (h ^ uint64(b)) * prime64
	}
	return coalesceKey{name, h}
}

// thenFlag reports whether a raw query sets then=true, exactly as
// url.ParseQuery(raw).Get("then") == "true" would. Only escapes and
// ';' make the two differ, so those queries take the parser.
func thenFlag(raw string) bool {
	if strings.ContainsAny(raw, "%+;") {
		q, _ := url.ParseQuery(raw)
		return q.Get("then") == "true"
	}
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(kv, "="); k == "then" {
			return v == "true"
		}
	}
	return false
}

func (s *Server) handleDo(w http.ResponseWriter, r *http.Request, name string) {
	var payload []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBody {
		payload = make([]byte, n) // known length: one exact buffer
		_, err = io.ReadFull(r.Body, payload)
	} else {
		payload, err = io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	}
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(payload) > maxBody {
		http.Error(w, "body exceeds limit", http.StatusRequestEntityTooLarge)
		return
	}
	atomic.AddUint64(&s.posted, 1)
	s.opts.Monitor.Inc("ingress-post")
	j, fresh, err := s.submit(name, payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !fresh {
		atomic.AddUint64(&s.coalesced, 1)
		s.opts.Monitor.Inc("ingress-coalesced")
	}

	w.Header()[ResultIDHeader] = j.hdr[:]
	if !thenFlag(r.URL.RawQuery) {
		if fresh {
			go s.dispatch(j, payload)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"resultId\":%q}\n", j.id)
		return
	}
	s.opts.Monitor.Inc("ingress-then-wait")
	if fresh {
		s.dispatch(j, payload) // the handler would only wait for it
	}
	s.awaitAndWrite(w, r, j)
}

// submit registers (or coalesces into) a pending job; the caller
// dispatches a fresh one. fresh is false when the submission joined an
// existing in-flight job with the same name and payload.
func (s *Server) submit(name string, payload []byte) (*job, bool, error) {
	key := keyOf(name, payload)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errors.New("ingress: server closed")
	}
	p, taken := s.pending[key]
	if taken && bytes.Equal(p.payload, payload) {
		s.mu.Unlock()
		return p, false, nil
	}
	s.sweepLocked(time.Now())
	var seq [20]byte
	j := &job{
		id:      s.idPrefix + string(strconv.AppendUint(seq[:0], s.idSeq.Add(1), 10)),
		name:    name,
		key:     key,
		payload: payload,
		done:    make(chan struct{}),
	}
	j.hdr[0] = j.id
	s.jobs[j.id] = j
	if !taken { // a colliding payload runs alone, uncoalesced
		s.pending[key] = j
	}
	s.mu.Unlock()
	return j, true, nil
}

func (s *Server) dispatch(j *job, payload []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), dispatchTimeout)
	defer cancel()
	if s.opts.Encode != nil {
		payload = s.opts.Encode(j.id, payload)
	}
	atomic.AddUint64(&s.dispatched, 1)
	s.opts.Monitor.Inc("ingress-dispatch")
	out, err := s.opts.Dispatcher.Call(ctx, j.name, payload)
	s.complete(j, out, err)
}

func (s *Server) complete(j *job, body []byte, err error) {
	s.mu.Lock()
	j.body, j.err = body, err
	j.payload = nil
	j.expires = time.Now().Add(s.opts.TTL)
	if s.pending[j.key] == j {
		delete(s.pending, j.key)
	}
	s.mu.Unlock()
	close(j.done)
	switch {
	case err == nil:
		s.opts.Monitor.Inc("ingress-ok")
	case rpc.IsShed(err):
		atomic.AddUint64(&s.shed, 1)
		s.opts.Monitor.Inc("ingress-shed")
	default:
		atomic.AddUint64(&s.failed, 1)
		s.opts.Monitor.Inc("ingress-error")
	}
}

// sweepLocked drops expired results, at most once per TTL/4.
func (s *Server) sweepLocked(now time.Time) {
	if now.Before(s.nextSweep) {
		return
	}
	s.nextSweep = now.Add(s.opts.TTL / 4)
	for id, j := range s.jobs {
		if !j.expires.IsZero() && now.After(j.expires) {
			delete(s.jobs, id)
		}
	}
}

func (s *Server) handleThen(w http.ResponseWriter, r *http.Request, id string) {
	s.opts.Monitor.Inc("ingress-then")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		w.Header()[ResultIDHeader] = j.hdr[:]
		s.awaitAndWrite(w, r, j)
		return
	}
	// No memory of this id — the ingress that minted it may have died.
	// The durable task layer still knows completed jobs by result id.
	if s.opts.Lookup != nil {
		body, ok, err := s.opts.Lookup(id)
		if err != nil {
			http.Error(w, "result lookup: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if ok {
			w.Header().Set(ResultIDHeader, id)
			w.Write(body)
			return
		}
	}
	http.Error(w, "result not found: "+id, http.StatusNotFound)
}

// awaitAndWrite blocks for the job's outcome (bounded by the request
// context) and renders it: 200 with the raw output, or the mapped
// failure status. A finished job never touches the request context.
func (s *Server) awaitAndWrite(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
	default:
		select {
		case <-j.done:
		case <-r.Context().Done():
			http.Error(w, "client gave up before the result arrived", http.StatusRequestTimeout)
			return
		}
	}
	if j.err != nil {
		writeErr(w, j.err)
		return
	}
	w.Write(j.body)
}

// writeErr maps dispatch failures onto HTTP statuses the edge
// understands: admission sheds become 503 with a Retry-After hint,
// deadline misses 504, everything else 500.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case rpc.IsShed(err):
		retry := time.Second
		if d, ok := rpc.ShedRetryAfter(err); ok && d > 0 {
			retry = d
		}
		secs := int(retry.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case rpc.IsDeadlineExceeded(err) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case rpc.IsFenced(err):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
