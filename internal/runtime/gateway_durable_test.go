package runtime

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/rpc"
	"hivemind/internal/store"
)

func TestEncodeDecodeTaskRoundTrip(t *testing.T) {
	id, payload, ok := DecodeTask(EncodeTask("task-42", []byte("body")))
	if !ok || id != "task-42" || string(payload) != "body" {
		t.Fatalf("round trip: id=%q payload=%q ok=%v", id, payload, ok)
	}
	// Bare payloads pass through untouched.
	if id, payload, ok := DecodeTask([]byte("bare")); ok || id != "" || string(payload) != "bare" {
		t.Fatalf("bare payload mangled: id=%q payload=%q ok=%v", id, payload, ok)
	}
	// Empty id and empty payload are legal.
	if id, payload, ok := DecodeTask(EncodeTask("", nil)); !ok || id != "" || len(payload) != 0 {
		t.Fatalf("empty envelope: id=%q payload=%q ok=%v", id, payload, ok)
	}
}

type recordingTracker struct {
	started  atomic.Int32
	finished atomic.Int32
}

func (r *recordingTracker) TaskStarted(id, method string) { r.started.Add(1) }
func (r *recordingTracker) TaskStep(id string, step int)  {}
func (r *recordingTracker) TaskFinished(id string)        { r.finished.Add(1) }

func TestGatewayDurableChainCheckpointsSteps(t *testing.T) {
	db := store.NewDB()
	rt := New(DefaultConfig(), db)
	defer rt.Close()
	rt.Register("trim", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.TrimSpace(in), nil
	})
	rt.Register("upper", func(ctx context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	tracker := &recordingTracker{}
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 5 * time.Second
	gcfg.Checkpoints = store.NewCheckpointLog(db)
	gcfg.Tracker = tracker
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"trim", "upper"})
	c := gatewayPair(t, g)

	out, err := c.CallSync("pipeline", EncodeTask("t1", []byte("  people  ")))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "PEOPLE" {
		t.Fatalf("out = %q", out)
	}
	// Every step committed exactly once, and the task closed.
	for step := 0; step < 2; step++ {
		doc, err := db.Get(store.StepOutputKey("t1", step))
		if err != nil {
			t.Fatalf("step %d output missing: %v", step, err)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("step %d committed %d times", step, g)
		}
	}
	orphans, err := gcfg.Checkpoints.Orphans()
	if err != nil || len(orphans) != 0 {
		t.Fatalf("orphans after completion = %v (err %v)", orphans, err)
	}
	if tracker.started.Load() != 1 || tracker.finished.Load() != 1 {
		t.Fatalf("tracker saw %d starts / %d finishes, want 1/1",
			tracker.started.Load(), tracker.finished.Load())
	}
}

func TestGatewayDurableChainSkipsCommittedSteps(t *testing.T) {
	db := store.NewDB()
	rt := New(DefaultConfig(), db)
	defer rt.Close()
	var headRuns atomic.Int32
	rt.Register("head", func(ctx context.Context, in []byte) ([]byte, error) {
		headRuns.Add(1)
		return append(in, 'H'), nil
	})
	rt.Register("tail", func(ctx context.Context, in []byte) ([]byte, error) {
		return append(in, 'T'), nil
	})
	log := store.NewCheckpointLog(db)
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 5 * time.Second
	gcfg.Checkpoints = log
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"head", "tail"})
	c := gatewayPair(t, g)

	// Simulate a dead primary's partial progress: the task began and
	// step 0 already committed before the crash.
	if _, _, err := log.Begin("t1", "pipeline", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := log.CommitStep("t1", 0, []byte("xH")); err != nil {
		t.Fatal(err)
	}

	out, err := c.CallSync("pipeline", EncodeTask("t1", []byte("ignored")))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "xHT" {
		t.Fatalf("out = %q, want committed step-0 output fed to tail", out)
	}
	if headRuns.Load() != 0 {
		t.Fatalf("head re-ran %d times after its commit", headRuns.Load())
	}
}

func TestGatewayRecoverRedispatchesOrphans(t *testing.T) {
	db := store.NewDB()
	rt := New(DefaultConfig(), db)
	defer rt.Close()
	rt.Register("step", func(ctx context.Context, in []byte) ([]byte, error) {
		return append(in, '!'), nil
	})
	log := store.NewCheckpointLog(db)
	gcfg := DefaultGatewayConfig()
	gcfg.Timeout = 5 * time.Second
	gcfg.Checkpoints = log
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"step"})
	defer g.Close()

	// Two orphans from a dead primary, one foreign task whose chain this
	// gateway does not serve.
	for _, id := range []string{"o1", "o2"} {
		if _, _, err := log.Begin(id, "pipeline", []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := log.Begin("alien", "elsewhere", nil); err != nil {
		t.Fatal(err)
	}

	n, err := g.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 2 {
		t.Fatalf("recovered %d orphans, want 2", n)
	}
	for _, id := range []string{"o1", "o2"} {
		doc, err := db.Get(store.StepOutputKey(id, 0))
		if err != nil {
			t.Fatalf("orphan %s output missing: %v", id, err)
		}
		if string(doc.Body) != id+"!" {
			t.Fatalf("orphan %s output = %q", id, doc.Body)
		}
	}
	orphans, _ := log.Orphans()
	if len(orphans) != 1 || orphans[0].TaskID != "alien" {
		t.Fatalf("remaining orphans = %v, want only the foreign task", orphans)
	}
}

func TestGatewayAdmissionGateRedirects(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("step", func(ctx context.Context, in []byte) ([]byte, error) { return in, nil })
	gcfg := DefaultGatewayConfig()
	gcfg.Admission = func() error { return rpc.NotLeaderError(2) }
	g := NewGatewayConfig(rt, gcfg)
	g.ExposeChain("pipeline", []string{"step"})
	c := gatewayPair(t, g)

	_, err := c.CallSync("pipeline", nil)
	leader, ok := rpc.RedirectTarget(err)
	if !ok || leader != 2 {
		t.Fatalf("err = %v, want NotLeaderError(2)", err)
	}
	if rt.Stats().Invocations != 0 {
		t.Fatal("standby gateway executed work behind the admission gate")
	}
}

// Satellite: a straggler duplicate racing an injector-killed attempt.
// The first attempt dies to the injector (a crashed container), the
// respawned attempt's original runs slow, its duplicate finishes first —
// the duplicate's result wins and the runtime counts exactly one
// completed invocation.
func TestStragglerDuplicateWinsAfterInjectedKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 1
	cfg.StragglerAfter = 20 * time.Millisecond
	cfg.Injector = &killNext{op: "invoke/fn", left: 1}
	rt := New(cfg, nil)
	defer rt.Close()

	var bodies atomic.Int32
	rt.Register("fn", func(ctx context.Context, in []byte) ([]byte, error) {
		if bodies.Add(1) == 1 {
			// The respawned attempt's original straggles.
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []byte("slow"), nil
		}
		return []byte("dup"), nil
	})

	out, err := rt.Invoke(context.Background(), "fn", nil)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(out) != "dup" {
		t.Fatalf("output = %q, want the duplicate's result", out)
	}
	st := rt.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (respawn after the kill)", st.Retries)
	}
	// The killed attempt ran no body; the respawn's original and its
	// duplicate ran one each.
	if n := bodies.Load(); n != 2 {
		t.Fatalf("bodies run = %d, want 2", n)
	}
	if st.Invocations != 1 {
		t.Fatalf("invocations = %d, want exactly one completion", st.Invocations)
	}
}
