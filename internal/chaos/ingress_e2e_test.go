package chaos_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/fleet"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// This file is the ingress acceptance suite: the HTTP job API on three
// independent ingress nodes in front of a 3-replica fleet, driven
// open-loop at 2× sustained capacity with the controller primary
// killed mid-run. Result ids are durable task ids, so the invariant
// under test is end-to-end exactly-once: every POSTed id resolves to
// exactly one outcome via GET /then/:id on any node — completed jobs
// committed their final step exactly once (RevGen 1), shed jobs answer
// 503 with a Retry-After hint, and coalesced duplicates share one id
// and one result.

// httpDo POSTs one job and returns (status, resultID, retryAfter).
func httpDo(client *http.Client, base, job, payload, query string) (int, string, error) {
	url := base + "/do/" + job
	if query != "" {
		url += "?" + query
	}
	resp, err := client.Post(url, "application/octet-stream", strings.NewReader(payload))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	// The minted id rides the header on both async and ?then=true
	// responses (the async body carries it as JSON too).
	return resp.StatusCode, resp.Header.Get(ingress.ResultIDHeader), nil
}

// httpThen collects one result id: (status, body, retryAfter header).
func httpThen(client *http.Client, base, id string) (int, string, string, error) {
	resp, err := client.Get(base + "/then/" + id)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", "", err
	}
	return resp.StatusCode, string(b), resp.Header.Get("Retry-After"), nil
}

// Acceptance: async jobs POSTed open-loop at 2× capacity into three
// ingress nodes survive a mid-run primary kill — every id resolves
// exactly once, sheds carry Retry-After, duplicates coalesce.
func TestIngressE2EAsyncJobsSurvivePrimaryKill(t *testing.T) {
	const (
		replicas = 3
		maxConc  = 8
		exec     = 10 * time.Millisecond
		runFor   = 3 * time.Second
		dupEvery = 5 // every 5th POST reuses the same payload
	)
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(7, chaos.Config{})
	db := store.NewDB()
	// Every gateway serves a durable one-step "work" chain behind
	// admission control; a dead controller takes its gateway down with
	// it, so callers see a transport failure and sweep, not a stale
	// self-redirect.
	rcfg := runtime.DefaultConfig()
	rcfg.MaxInFlight = 4 * maxConc
	f := bootFleet(t, fleet.Config{
		Seed: 7, Store: db, Monitor: mon, Fault: inj, Runtime: rcfg,
		Gateway: runtime.GatewayConfig{
			Timeout:      5 * time.Second,
			StepRespawns: 1,
			Overload: &runtime.AdmissionConfig{
				MaxConcurrent: maxConc,
				QueueLen:      2 * maxConc,
			},
		},
		Setup: func(nd *fleet.Node) {
			nd.Runtime.Register("step", func(ctx context.Context, in []byte) ([]byte, error) {
				select {
				case <-time.After(exec):
					return append(append([]byte{}, in...), ".s"...), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
			nd.Gateway.ExposeChain("work", []string{"step"})
		},
	})
	primary := leader(t, f)

	// One ingress node per replica, each dispatching through its own
	// leader-following failover client, so jobs ingested anywhere execute
	// on the controller primary and survive its death by redirect +
	// checkpoint dedup. f.Addrs is in replica-id order, the order
	// NotLeaderError redirects index into.
	type front struct {
		ing *ingress.Server
		url string
	}
	nodes := make([]front, replicas)
	for i, nd := range f.Nodes {
		fc := dialFailover(f.Addrs(), 1024, rpc.FailoverOptions{
			Attempts:     12,
			RetryBackoff: 10 * time.Millisecond,
			CallTimeout:  3 * time.Second,
		})
		t.Cleanup(func() { fc.Close() })
		ing, err := ingress.NewServer(ingress.Options{
			Dispatcher: fc,
			Encode:     runtime.EncodeTask,
			Lookup:     nd.Gateway.TaskResult,
			TTL:        5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ing.Close)
		ts := httptest.NewServer(ing)
		t.Cleanup(ts.Close)
		nodes[i] = front{ing: ing, url: ts.URL}
	}

	client := &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
			MaxConnsPerHost:     1024,
			IdleConnTimeout:     30 * time.Second,
		},
	}

	// Closed-loop capacity through the whole stack (HTTP → ingress →
	// failover → durable chain), unique payloads so nothing coalesces.
	capacity := func() float64 {
		const window = 700 * time.Millisecond
		var done atomic.Int64
		ctx, cancel := context.WithTimeout(context.Background(), window)
		defer cancel()
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < 2*maxConc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ctx.Err() == nil; i++ {
					status, _, err := httpDo(client, nodes[w%replicas].url, "work",
						fmt.Sprintf("cal-%d-%d", w, i), "then=true")
					if err == nil && status == http.StatusOK {
						done.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(done.Load()) / time.Since(start).Seconds()
	}()
	if capacity <= 0 {
		t.Fatal("calibration produced no capacity")
	}
	rate := 2 * capacity
	interval := time.Duration(float64(time.Second) / rate)
	t.Logf("capacity %.0f rps, offering %.0f rps", capacity, rate)

	// Open-loop POST phase: arrivals on a fixed schedule regardless of
	// completions, primary killed halfway through.
	type posted struct {
		id      string
		payload string
	}
	var (
		mu      sync.Mutex
		results []posted
		postErr atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(runFor)
	killed := false
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(end) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if !killed && time.Since(start) >= runFor/2 {
			inj.At(controller.KillControllerOp(primary.ID), 0)
			killed = true
		}
		// Duplicates all go to one fixed node, the only place they can
		// coalesce (see the coalescing check below).
		payload, node := fmt.Sprintf("u-%d", i), nodes[i%replicas]
		if i%dupEvery == 0 {
			payload, node = "dup-payload", nodes[0]
		}
		wg.Add(1)
		go func(payload string) {
			defer wg.Done()
			status, id, err := httpDo(client, node.url, "work", payload, "")
			if err != nil || status != http.StatusOK || id == "" {
				postErr.Add(1)
				return
			}
			mu.Lock()
			results = append(results, posted{id: id, payload: payload})
			mu.Unlock()
		}(payload)
	}
	wg.Wait()
	if !killed {
		t.Fatal("kill was never scheduled")
	}
	if len(results) == 0 {
		t.Fatal("no POST succeeded")
	}
	if pe := postErr.Load(); pe > int64(len(results)/10) {
		t.Fatalf("%d/%d POSTs failed at the HTTP layer", pe, pe+int64(len(results)))
	}

	// Drain: all ingesses finish their in-flight dispatches.
	drainDeadline := time.Now().Add(20 * time.Second)
	for {
		pending := 0
		for _, nd := range nodes {
			pending += nd.ing.Depth()
		}
		if pending == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("%d jobs still pending after drain window", pending)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Collect phase: every id must resolve on some node — the node that
	// minted it answers from memory, every other from durable state.
	collect := func(id string) (int, string, string) {
		for _, nd := range nodes {
			status, body, ra, err := httpThen(client, nd.url, id)
			if err == nil && status != http.StatusNotFound {
				return status, body, ra
			}
		}
		return http.StatusNotFound, "", ""
	}

	byID := map[string]string{} // id → payload
	for _, p := range results {
		if prev, ok := byID[p.id]; ok && prev != p.payload {
			t.Fatalf("id %s shared by different payloads %q and %q", p.id, prev, p.payload)
		}
		byID[p.id] = p.payload
	}

	var okN, shedN, failN int
	sem := make(chan struct{}, 32)
	var cmu sync.Mutex
	var cwg sync.WaitGroup
	for id, payload := range byID {
		cwg.Add(1)
		go func(id, payload string) {
			defer cwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			status, body, ra := collect(id)
			cmu.Lock()
			defer cmu.Unlock()
			switch status {
			case http.StatusOK:
				okN++
				if want := payload + ".s"; body != want {
					t.Errorf("id %s resolved %q, want %q", id, body, want)
				}
				// Exactly-once: the chain's final step output committed in
				// exactly one store revision, dispatch retries and failover
				// re-execution included.
				doc, err := db.Get(store.StepOutputKey(id, 0))
				if err != nil {
					t.Errorf("id %s has no durable step output: %v", id, err)
				} else if gen := store.RevGen(doc.Rev); gen != 1 {
					t.Errorf("id %s step output committed %d times", id, gen)
				}
			case http.StatusServiceUnavailable:
				shedN++
				if ra == "" {
					t.Errorf("id %s shed without a Retry-After hint", id)
				}
			case http.StatusNotFound:
				t.Errorf("id %s resolved on no node", id)
			default:
				failN++
			}
		}(id, payload)
	}
	cwg.Wait()
	t.Logf("ids %d | ok %d shed %d failed %d | posts %d (coalesced into %d ids)",
		len(byID), okN, shedN, failN, len(results), len(byID))

	if okN == 0 {
		t.Fatal("no job completed")
	}
	if failN > len(byID)/10 {
		t.Fatalf("%d/%d ids resolved as hard failures", failN, len(byID))
	}

	// Coalescing: duplicate-payload POSTs to nodes[0] overlapped under
	// 2× load, so they must have shared ids. Without a queue group there
	// is no cross-node coalescing: each ingress coalesces only its own
	// pending table, so identical jobs POSTed to different nodes are
	// separate dispatches.
	dupIDs := map[string]bool{}
	var dupPosts int
	for _, p := range results {
		if p.payload == "dup-payload" {
			dupPosts++
			dupIDs[p.id] = true
		}
	}
	if dupPosts > 1 && len(dupIDs) >= dupPosts {
		t.Fatalf("%d duplicate POSTs produced %d distinct ids: nothing coalesced", dupPosts, len(dupIDs))
	}
	if nodes[0].ing.Stats().Coalesced == 0 {
		t.Fatal("coalesced counter of the duplicates' node is zero")
	}

	// Duplicate collection is idempotent: the same id yields identical
	// bytes again.
	for id, payload := range byID {
		if status, body, _ := collect(id); status == http.StatusOK {
			if body != payload+".s" {
				t.Fatalf("re-collect of %s diverged: %q", id, body)
			}
			break
		}
	}
	waitFailover(t, mon, 5*time.Second)
}
