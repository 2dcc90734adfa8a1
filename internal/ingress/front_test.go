package ingress

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/metrics"
)

// thenQuery is the url.Values reading thenFlag must agree with.
func thenQuery(raw string) bool {
	return (&url.URL{RawQuery: raw}).Query().Get("then") == "true"
}

var thenCases = []struct {
	raw  string
	want bool
}{
	{"", false},
	{"then=true", true},
	{"then=false", false},
	{"then=TRUE", false},
	{"then", false},
	{"then=", false},
	{"x=1&then=true", true},
	{"then=true&then=false", true},
	{"then=false&then=true", false},
	{"then=true&", true},
	{"&&then=true", true},
	{"thenx=true", false},
	{"then=truex", false},
	{"=true&then=true", true},
	{"then=tr%75e", true},
	{"th%65n=true", true},
	{"then=true%", false},
	{"then=true;x=1", false},
	{"x;=1&then=true", true},
	{"then+=true", false},
	{"then=+true", false},
}

func TestThenFlag(t *testing.T) {
	for _, tc := range thenCases {
		if got := thenFlag(tc.raw); got != tc.want {
			t.Errorf("thenFlag(%q) = %v, want %v", tc.raw, got, tc.want)
		}
		if ref := thenQuery(tc.raw); ref != tc.want {
			t.Errorf("url.Values reads %q as %v; the table says %v", tc.raw, ref, tc.want)
		}
	}
}

func FuzzThenFlag(f *testing.F) {
	for _, tc := range thenCases {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := thenFlag(raw), thenQuery(raw); got != want {
			t.Fatalf("thenFlag(%q) = %v, url.Values says %v", raw, got, want)
		}
	})
}

// A 64-bit hash is not identity: a pending job whose key matches but
// whose payload differs must not absorb the new submission.
func TestIngressCoalescingConfirmsPayload(t *testing.T) {
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

	first := postDo(t, ts, "work", "planted", "")
	// Re-file the pending job under the key the next payload hashes to,
	// as an FNV-1a collision would.
	s.mu.Lock()
	j := s.jobs[first]
	delete(s.pending, j.key)
	j.key = keyOf("work", []byte("mine"))
	s.pending[j.key] = j
	s.mu.Unlock()

	second := postDo(t, ts, "work", "mine", "")
	close(gate)
	if second == first {
		t.Fatal("colliding payload coalesced into the pending job")
	}
	for id, want := range map[string]string{first: "r:planted", second: "r:mine"} {
		if status, body, _ := getThen(t, ts, id); status != http.StatusOK || body != want {
			t.Fatalf("GET /then/%s: %d %q, want %q", id, status, body, want)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("dispatches = %d, want 2", got)
	}
}

// A fresh ?then=true job is not tied to its client: one that hangs up
// mid-job leaves the job running, and its result id still collects.
func TestIngressThenTrueClientGone(t *testing.T) {
	ids := make(chan string, 1)
	release := make(chan struct{})
	reg := metrics.NewRegistry()
	s, err := NewServer(Options{
		Monitor: reg,
		Dispatcher: DispatchFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
			<-release
			return append([]byte("r:"), payload...), nil
		}),
		Encode: func(id string, payload []byte) []byte {
			ids <- id
			return payload
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // before ts.Close, which waits for the blocked handler

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/do/work?then=true", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	id := <-ids
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("cancelled client got a response")
	}
	free()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("ingress-ok") != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("job did not complete after its client left: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if status, body, _ := getThen(t, ts, id); status != http.StatusOK || body != "r:x" {
		t.Fatalf("GET /then/%s: %d %q", id, status, body)
	}
}

// The blocking null job through ServeHTTP — request, recorder, body,
// job, id, dispatch and reply — stays within its allocation budget.
func TestServeThenTrueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s, err := NewServer(Options{
		Dispatcher: DispatchFunc(func(_ context.Context, _ string, p []byte) ([]byte, error) { return p, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := strings.Repeat("n", 64)
	allocs := testing.AllocsPerRun(500, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/do/echo?then=true", strings.NewReader(body)))
		if w.Code != http.StatusOK || string(w.Body.Bytes()) != body {
			t.Fatalf("status %d body %q", w.Code, w.Body.Bytes())
		}
	})
	if allocs > 28 {
		t.Fatalf("ServeHTTP ?then=true allocates %.1f per request, want <= 28", allocs)
	}
}
