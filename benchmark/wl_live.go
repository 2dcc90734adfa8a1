package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hivemind/internal/ingress"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// Warm-up op counts at scale 1 (charged to setup_s).
const (
	warmHTTPNull = 10000
	warmMixed    = 4000
	warmChains   = 1000
)

// mixedRate is http-mixed-open's offered load, arrivals per second:
// about 30 % of what the reference 2-core host sustains closed-loop.
const mixedRate = 4000

// httpEnv is the http-null and http-mixed-open environment.
type httpEnv struct {
	c     *config
	tr    *tracer
	stack *httpStack
	pool  *payloadPool
	open  bool
	next  atomic.Uint64 // timed-window ops issued so far, across slices
	slice int64         // open loop: slices driven so far
}

func setupHTTP(open bool) func(c *config, tr *tracer) (env, error) {
	return func(c *config, tr *tracer) (env, error) {
		stack, err := newHTTPStack(c.clients, true, tr)
		if err != nil {
			return nil, err
		}
		e := &httpEnv{c: c, tr: tr, stack: stack, pool: newPayloadPool(c.seed), open: open}
		warm, job := c.scaled(warmHTTPNull), "echo"
		if open {
			warm, job = c.scaled(warmMixed), "hash"
		}
		var next atomic.Uint64
		rec := clients(c.clients, func(_ int, rec *recorder) {
			buf := make([]byte, maxPayload)
			for {
				i := next.Add(1) - 1
				if i >= uint64(warm) {
					return
				}
				id := noTrace | 1<<61 | i // outside the timed window's id space
				size := mixedSizes[i%uint64(len(mixedSizes))].size
				if !open {
					size = 64
				}
				if err := e.doThen(job, id, e.pool.fill(buf, id, size)); err != nil {
					rec.fail(err)
				}
			}
		})
		if rec.err != nil {
			stack.close()
			return nil, fmt.Errorf("warm-up: %w", rec.err)
		}
		return e, nil
	}
}

// post sends one POST /do/<job> and returns the response.
func (e *httpEnv) post(path string, op uint64, payload []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.stack.url+path, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	return e.do(req, op)
}

func (e *httpEnv) do(req *http.Request, op uint64) (*http.Response, []byte, error) {
	if e.tr.sampled(op) {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	resp, err := e.stack.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp, body, nil
}

// doThen is the one-call blocking form, POST /do/<job>?then=true, with
// its checks: a result id header, and the body the job must produce.
func (e *httpEnv) doThen(job string, op uint64, payload []byte) error {
	resp, body, err := e.post("/do/"+job+"?then=true", op, payload)
	if err != nil {
		return err
	}
	if resp.Header.Get(ingress.ResultIDHeader) == "" {
		return fmt.Errorf("op %d: no %s header", op, ingress.ResultIDHeader)
	}
	return checkJob(job, op, payload, body)
}

func checkJob(job string, op uint64, payload, body []byte) error {
	want := payload
	if job == "hash" {
		sum := sha256.Sum256(payload)
		want = sum[:]
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("op %d: %s returned %d wrong bytes", op, job, len(body))
	}
	return nil
}

// doAsync is the two-call form: POST /do/hash returns a result id,
// GET /then/:id collects sha256(payload).
func (e *httpEnv) doAsync(op uint64, payload []byte) (id string, err error) {
	resp, _, err := e.post("/do/hash", op, payload)
	if err != nil {
		return "", err
	}
	id = resp.Header.Get(ingress.ResultIDHeader)
	if id == "" {
		return "", fmt.Errorf("op %d: no %s header", op, ingress.ResultIDHeader)
	}
	return id, e.collect(op, id, payload)
}

func (e *httpEnv) collect(op uint64, id string, payload []byte) error {
	req, err := http.NewRequest(http.MethodGet, e.stack.url+"/then/"+id, nil)
	if err != nil {
		return err
	}
	_, body, err := e.do(req, op)
	if err != nil {
		return err
	}
	return checkJob("hash", op, payload, body)
}

func (e *httpEnv) drive(window time.Duration) *recorder {
	if e.open {
		return e.driveOpen(window)
	}
	// Closed loop: each client sends its next request when the previous
	// one completes. Ops are numbered from one shared counter, so the
	// inputs do not depend on how the clients interleave.
	deadline := time.Now().Add(window)
	return clients(e.c.clients, func(_ int, rec *recorder) {
		buf := make([]byte, 64)
		for {
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			op := e.next.Add(1) - 1
			payload := e.pool.fill(buf, op, 64)
			end := e.tr.begin(layerClient, op)
			err := e.doThen("echo", op, payload)
			end()
			if err != nil {
				rec.fail(err)
				continue
			}
			rec.ok(time.Since(start))
		}
	})
}

// recollectEvery: one op in this many collects its result a second
// time and must get the same bytes (GET /then is idempotent).
const recollectEvery = 64

// driveOpen sends on a Poisson schedule whatever the stack does: the
// sender goroutines take the next due arrival in order, wait for its
// due time, and time the op from that due time, so a stall is charged
// to every arrival it delays.
func (e *httpEnv) driveOpen(window time.Duration) *recorder {
	sched := makeSchedule(e.c.seed+e.slice<<32, mixedRate, window)
	e.slice++
	base := e.next.Add(uint64(len(sched))) - uint64(len(sched)) // ids stay unique across slices
	var next atomic.Int64
	start := time.Now()
	return clients(e.c.clients, func(_ int, rec *recorder) {
		buf := make([]byte, maxPayload)
		for {
			i := next.Add(1) - 1
			if i >= int64(len(sched)) {
				return
			}
			a := sched[i]
			a.id += base
			due := start.Add(a.due)
			sleepUntil(due)
			payload := e.pool.fill(buf, a.id, a.size)
			sent := time.Now()
			end := e.tr.begin(layerClient, a.id)
			id, err := e.doAsync(a.id, payload)
			end()
			done := time.Now()
			if err == nil && i%recollectEvery == 0 {
				err = e.collect(noTrace, id, payload)
			}
			if err != nil {
				rec.fail(err)
				continue
			}
			rec.ok(done.Sub(due))
			rec.service = append(rec.service, int64(done.Sub(sent)))
			rec.late = append(rec.late, int64(sent.Sub(due)))
		}
	})
}

// sleepUntil blocks in clock_nanosleep until t. time.Sleep would do,
// but an idle Go scheduler waits in epoll, whose timeout has
// millisecond granularity: sub-millisecond sleeps overshoot by ~0.5 ms,
// more than the whole op takes. nanosleep parks one OS thread per
// sender instead and overshoots by the kernel's ~50 µs timer slack. No
// core spins either way.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func (e *httpEnv) counters(m metricSet) { e.stack.counters(m) }

func (e *httpEnv) close() error {
	st := e.stack.ing.Stats()
	e.stack.close()
	if st.Failed+st.Shed > 0 {
		return fmt.Errorf("ingress reports %d failed and %d shed jobs", st.Failed, st.Shed)
	}
	return nil
}

// fleetEnv is the fleet-chain-wal environment.
type fleetEnv struct {
	c     *config
	tr    *tracer
	fleet *fleet
	pool  *payloadPool
	tasks atomic.Uint64 // timed-window tasks issued: ids 0..tasks-1
	warm  int
}

const chainInput = 1 << 10

func setupFleet(c *config, tr *tracer) (env, error) {
	dir, err := scratchDir(c, "wal-")
	if err != nil {
		return nil, err
	}
	f, err := newFleet(dir, 3, c.seed, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &fleetEnv{c: c, tr: tr, fleet: f, pool: newPayloadPool(c.seed), warm: c.scaled(warmChains)}
	var next atomic.Uint64
	rec := clients(c.clients, func(_ int, rec *recorder) {
		buf := make([]byte, chainInput)
		for {
			i := next.Add(1) - 1
			if i >= uint64(e.warm) {
				return
			}
			if err := e.chain(noTrace|i, buf); err != nil {
				rec.fail(err)
			}
		}
	})
	if rec.err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", rec.err)
	}
	return e, nil
}

// taskID names a chain task after its op, in decimal, so the tracker
// span wrapper can recover the op from the id.
func taskID(op uint64) string { return strconv.FormatUint(op, 10) }

// chain runs one durable 3-step chain and checks the reply is the
// input plus one byte per step, in step order.
func (e *fleetEnv) chain(op uint64, buf []byte) error {
	input := e.pool.fill(buf, op, chainInput)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	end := e.tr.begin(layerLink, op)
	out, err := e.fleet.fc.Call(ctx, "chain3", runtime.EncodeTask(taskID(op), input))
	end()
	if err != nil {
		return fmt.Errorf("task %d: %w", op, err)
	}
	if len(out) != len(input)+len(chainSuffix) || !bytes.Equal(out[:len(input)], input) ||
		string(out[len(input):]) != chainSuffix {
		return fmt.Errorf("task %d: reply is not input+%q", op, chainSuffix)
	}
	return nil
}

func (e *fleetEnv) drive(window time.Duration) *recorder {
	deadline := time.Now().Add(window)
	return clients(e.c.clients, func(_ int, rec *recorder) {
		buf := make([]byte, chainInput)
		for {
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			op := e.tasks.Add(1) - 1
			end := e.tr.begin(layerClient, op)
			err := e.chain(op, buf)
			end()
			if err != nil {
				rec.fail(err)
				continue
			}
			rec.ok(time.Since(start))
		}
	})
}

func (e *fleetEnv) counters(m metricSet) { e.fleet.counters(m) }

// verifySample: every task's checkpoint is checked after recovery;
// one task in this many also has each step output's revision checked.
const verifySample = 16

// close shuts the fleet down, recovers the store from its directory
// and checks it holds one completed checkpoint per task, with each
// sampled step output written exactly once.
func (e *fleetEnv) close() error {
	defer os.RemoveAll(e.fleet.dir)
	if err := e.fleet.close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	db, _, err := store.Recover(e.fleet.dir)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", e.fleet.dir, err)
	}
	defer db.Close()
	log := store.NewCheckpointLog(db)
	check := func(op uint64, sample bool) error {
		id := taskID(op)
		ck, found, err := log.Task(id)
		if err != nil || !found || !ck.Done {
			return fmt.Errorf("task %s after recovery: found=%v done=%v err=%v", id, found, ck.Done, err)
		}
		if !sample {
			return nil
		}
		for step := range chainSteps {
			doc, err := db.Get(store.StepOutputKey(id, step))
			if err != nil {
				return fmt.Errorf("task %s step %d output: %w", id, step, err)
			}
			if gen := store.RevGen(doc.Rev); gen != 1 {
				return fmt.Errorf("task %s step %d output written %d times", id, step, gen)
			}
		}
		return nil
	}
	var bad int
	var first error
	note := func(err error) {
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	for i := 0; i < e.warm; i++ {
		note(check(noTrace|uint64(i), i%verifySample == 0))
	}
	for op := uint64(0); op < e.tasks.Load(); op++ {
		note(check(op, op%verifySample == 0))
	}
	if bad > 0 {
		return fmt.Errorf("%d tasks fail the recovery check; first: %w", bad, first)
	}
	return nil
}
