package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestLiveSpanRecordsIdentityArgs(t *testing.T) {
	r := NewRecorder(0)
	l := NewLive(r)
	parent := l.Start("root", "management", "gateway", SpanContext{TraceID: "task-1"})
	child := l.Start("child", "execution", "runtime", SpanContext{TraceID: "task-1", Parent: parent.ID()})
	child.SetArg("fn", "plan")
	child.End()
	parent.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Args["trace"] != "task-1" {
			t.Fatalf("span %q trace arg = %q, want task-1", s.Name, s.Args["trace"])
		}
	}
	var root, kid Span
	for _, s := range spans {
		if s.Name == "root" {
			root = s
		} else {
			kid = s
		}
	}
	if kid.Args["parent"] != root.Args["span"] {
		t.Fatalf("child parent %q != root span %q", kid.Args["parent"], root.Args["span"])
	}
	if root.Args["parent"] != "" {
		t.Fatalf("root has a parent arg: %q", root.Args["parent"])
	}
	if kid.Args["fn"] != "plan" {
		t.Fatalf("SetArg lost: %v", kid.Args)
	}
}

func TestLiveSpanEndRecordsOnce(t *testing.T) {
	r := NewRecorder(0)
	l := NewLive(r)
	sp := l.Start("s", "", "t", SpanContext{})
	sp.End()
	sp.End()
	sp.SetArg("late", "ignored") // after End: dropped, not racy
	if r.Len() != 1 {
		t.Fatalf("double End recorded %d spans", r.Len())
	}
	if args := r.Spans()[0].Args; args["late"] != "" {
		t.Fatalf("SetArg after End mutated the recorded span: %v", args)
	}
}

func TestLiveNilSafety(t *testing.T) {
	var l *Live
	if l.Now() != 0 {
		t.Fatal("nil Live leaked state")
	}
	sp := l.Start("s", "", "t", SpanContext{})
	if sp != nil {
		t.Fatal("nil Live returned a span")
	}
	// All span methods tolerate the nil they just received.
	sp.SetArg("k", "v")
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span has an id")
	}
	l.Mark("m", "t", nil, false)
}

// TestLiveSharedRecorderConcurrent drives one shared Live/Recorder from
// many goroutines — spans, instants, and a mid-flight Chrome export —
// the way a gateway fleet shares a tracer. Meaningful under -race.
func TestLiveSharedRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	l := NewLive(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			trace := fmt.Sprintf("task-%d", g)
			for i := 0; i < 50; i++ {
				root := l.Start("root", "management", "gateway", SpanContext{TraceID: trace})
				child := l.Start("hop", "network", "rpc", SpanContext{TraceID: trace, Parent: root.ID()})
				child.End()
				root.End()
				l.Mark("beat", "controller", nil, false)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := r.WriteChromeTrace(&buf); err != nil {
				t.Errorf("export during recording: %v", err)
			}
		}
	}()
	wg.Wait()
	if r.Len() != 8*50*2 {
		t.Fatalf("spans = %d, want %d", r.Len(), 8*50*2)
	}
	if len(r.instants) != 8*50 {
		t.Fatalf("instants = %d, want %d", len(r.instants), 8*50)
	}
	// Unique span ids across goroutines.
	seen := map[string]bool{}
	for _, s := range r.Spans() {
		id := s.Args["span"]
		if seen[id] {
			t.Fatalf("duplicate span id %q", id)
		}
		seen[id] = true
	}
}
