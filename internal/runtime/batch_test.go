package runtime

import (
	"bytes"
	"context"
	"testing"
	"time"

	"hivemind/internal/rpc"
)

func TestGatewayExposeBatchFansOutAndPreservesEntryErrors(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("upper", func(_ context.Context, in []byte) ([]byte, error) {
		return bytes.ToUpper(in), nil
	})
	g := newGateway(rt, time.Second)
	g.Expose("ok", "upper")
	g.Expose("broken", "unregistered")
	g.ExposeBatch()
	c := gatewayPair(t, g)

	env := rpc.EncodeBatch([]rpc.BatchEntry{
		{Method: "ok", Payload: []byte("one")},
		{Method: "broken", Payload: []byte("two")},
		{Method: "no-such-method", Payload: nil},
		{Method: rpc.BatchMethod, Payload: nil}, // nested envelopes refused
		{Method: "ok", Payload: []byte("five")},
	})
	raw, err := c.CallSync(rpc.BatchMethod, env)
	if err != nil {
		t.Fatal(err)
	}
	replies, err := rpc.DecodeBatchReplies(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 5 {
		t.Fatalf("%d replies, want 5", len(replies))
	}
	if replies[0].ReplyError() != nil || string(replies[0].Body) != "ONE" {
		t.Fatalf("entry 0: %+v", replies[0])
	}
	if replies[1].ReplyError() == nil {
		t.Fatal("entry 1 (broken handler) succeeded")
	}
	if replies[2].ReplyError() == nil {
		t.Fatal("entry 2 (unknown method) succeeded")
	}
	if replies[3].ReplyError() == nil {
		t.Fatal("entry 3 (nested batch) succeeded")
	}
	if replies[4].ReplyError() != nil || string(replies[4].Body) != "FIVE" {
		t.Fatalf("entry 4: %+v", replies[4])
	}
	// A partial failure stays partial: the envelope call itself is fine.
}

func TestGatewayExposeBatchRejectsJunkEnvelope(t *testing.T) {
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	g := newGateway(rt, time.Second)
	g.ExposeBatch()
	c := gatewayPair(t, g)
	if _, err := c.CallSync(rpc.BatchMethod, []byte("garbage")); err == nil {
		t.Fatal("junk envelope accepted")
	}
}

func TestGatewayExposeBatchEntriesShedIndividually(t *testing.T) {
	// A gateway in admission-refusal mode sheds each batch entry on its
	// own; the envelope survives and carries per-entry shed errors that
	// still parse as typed sheds.
	rt := New(DefaultConfig(), nil)
	defer rt.Close()
	rt.Register("fn", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
	cfg := DefaultGatewayConfig()
	cfg.Timeout = time.Second
	cfg.Admission = func() error { return rpc.ShedError(75 * time.Millisecond) }
	g := NewGatewayConfig(rt, cfg)
	g.ExposeChain("work", []string{"fn"})
	g.ExposeBatch()
	c := gatewayPair(t, g)

	raw, err := c.CallSync(rpc.BatchMethod, rpc.EncodeBatch([]rpc.BatchEntry{
		{Method: "work", Payload: []byte("a")},
		{Method: "work", Payload: []byte("b")},
	}))
	if err != nil {
		t.Fatal(err)
	}
	replies, err := rpc.DecodeBatchReplies(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		rerr := r.ReplyError()
		if !rpc.IsShed(rerr) {
			t.Fatalf("entry %d error %v is not a typed shed", i, rerr)
		}
		if d, ok := rpc.ShedRetryAfter(rerr); !ok || d != 75*time.Millisecond {
			t.Fatalf("entry %d retry-after %v/%v", i, d, ok)
		}
	}
}
