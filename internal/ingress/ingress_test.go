package ingress

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/rpc"
)

// postDo submits a job and returns the parsed result id.
func postDo(t *testing.T, ts *httptest.Server, job, body, query string) string {
	t.Helper()
	url := ts.URL + "/do/" + job
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /do/%s: status %d", job, resp.StatusCode)
	}
	var out struct {
		ResultID string `json:"resultId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ResultID == "" || out.ResultID != resp.Header.Get(ResultIDHeader) {
		t.Fatalf("result id %q, header %q", out.ResultID, resp.Header.Get(ResultIDHeader))
	}
	return out.ResultID
}

// getThen collects a result id, returning status, body and headers.
func getThen(t *testing.T, ts *httptest.Server, id string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/then/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestIngressAsyncRoundTrip(t *testing.T) {
	var calls atomic.Uint64
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(_ context.Context, method string, payload []byte) ([]byte, error) {
			calls.Add(1)
			return []byte(method + ":" + string(payload)), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := postDo(t, ts, "echo", "hello", "")
	status, body, _ := getThen(t, ts, id)
	if status != http.StatusOK || body != "echo:hello" {
		t.Fatalf("GET /then: %d %q", status, body)
	}
	// Duplicate collection returns the identical result until TTL.
	status, body2, _ := getThen(t, ts, id)
	if status != http.StatusOK || body2 != body {
		t.Fatalf("second GET /then: %d %q, want %q", status, body2, body)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("dispatches = %d, want 1", got)
	}
}

func TestIngressThenTrueBlocks(t *testing.T) {
	release := make(chan struct{})
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(ctx context.Context, _ string, _ []byte) ([]byte, error) {
			select {
			case <-release:
				return []byte("late"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/do/slow?then=true", "", strings.NewReader("x"))
		if err != nil {
			done <- "err: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()
	select {
	case got := <-done:
		t.Fatalf("then=true returned before the job finished: %s", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-done; got != "200 late" {
		t.Fatalf("then=true result %q, want \"200 late\"", got)
	}
}

func TestIngressCoalescesIdenticalPending(t *testing.T) {
	var calls atomic.Uint64
	gate := make(chan struct{})
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
			calls.Add(1)
			<-gate
			return append([]byte("r:"), payload...), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Ten identical POSTs while the first is in flight share one id and
	// one dispatch; a different payload forks its own.
	ids := make([]string, 10)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postDo(t, ts, "work", "same-bytes", "")
		}(i)
	}
	wg.Wait()
	other := postDo(t, ts, "work", "different-bytes", "")
	close(gate)

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("coalesced ids diverge: %q vs %q", id, ids[0])
		}
	}
	if other == ids[0] {
		t.Fatal("different payload coalesced into the same job")
	}
	status, body, _ := getThen(t, ts, ids[0])
	if status != http.StatusOK || body != "r:same-bytes" {
		t.Fatalf("coalesced result: %d %q", status, body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("dispatches = %d, want 2 (1 coalesced + 1 distinct)", got)
	}
	st := s.Stats()
	if st.Coalesced != 9 {
		t.Fatalf("Stats.Coalesced = %d, want 9", st.Coalesced)
	}
	// Once completed the job leaves the pending table: a new identical
	// POST is a fresh dispatch, not a stale cache hit.
	fresh := postDo(t, ts, "work", "same-bytes", "")
	if fresh == ids[0] {
		t.Fatal("completed job still coalescing new submissions")
	}
}

func TestIngressShedMapsTo503WithRetryAfter(t *testing.T) {
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(context.Context, string, []byte) ([]byte, error) {
			return nil, rpc.ShedError(250 * time.Millisecond)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := postDo(t, ts, "busy", "x", "")
	status, _, hdr := getThen(t, ts, id)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("shed job resolved %d, want 503", status)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", st.Shed)
	}
}

func TestIngressDurableLookupServesUnknownIDs(t *testing.T) {
	durable := map[string][]byte{"dead-ingress-7": []byte("recovered")}
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(context.Context, string, []byte) ([]byte, error) {
			return nil, nil
		}),
		Lookup: func(id string) ([]byte, bool, error) {
			b, ok := durable[id]
			return b, ok, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// An id this ingress never minted resolves from durable state —
	// the crash-survival path.
	status, body, _ := getThen(t, ts, "dead-ingress-7")
	if status != http.StatusOK || body != "recovered" {
		t.Fatalf("durable lookup: %d %q", status, body)
	}
	status, _, _ = getThen(t, ts, "nobody-ever")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", status)
	}
}

func TestIngressEncodeThreadsResultID(t *testing.T) {
	var seen atomic.Value
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
			seen.Store(string(payload))
			return []byte("ok"), nil
		}),
		Encode: func(id string, payload []byte) []byte {
			return []byte(id + "|" + string(payload))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := postDo(t, ts, "job", "body", "")
	if status, _, _ := getThen(t, ts, id); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := seen.Load(); got != id+"|body" {
		t.Fatalf("dispatched payload %q, want id-encoded %q", got, id+"|body")
	}
}

// A body over the 1 MiB cap is refused with 413 before anything is
// dispatched, whether its length is declared up front or it arrives
// chunked with no Content-Length.
func TestIngressRejectsBodyOverLimit(t *testing.T) {
	var calls atomic.Uint64
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
			calls.Add(1)
			return payload, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := strings.Repeat("x", maxBody+1)
	for _, chunked := range []bool{false, true} {
		r := httptest.NewRequest(http.MethodPost, "/do/job?then=true", strings.NewReader(big))
		if chunked {
			r.ContentLength = -1
			r.TransferEncoding = []string{"chunked"}
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked=%v: status %d, want 413", chunked, w.Code)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("oversized bodies dispatched %d times", n)
	}
	if st := s.Stats(); st.Posted != 0 {
		t.Fatalf("oversized bodies counted as posted: %d", st.Posted)
	}
}
