package chaos_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/fleet"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// TestFailoverE2EMuxedStreamsAcrossPrimaryKill runs the §4.7 failover
// acceptance over the multiplexed transport: one TCP connection to the
// primary carries many logical streams. The doomed chain call rides one
// stream and is held hostage mid-tier; sibling streams on the same
// connection must keep completing their own chains (no head-of-line
// coupling through the shared socket or the bounded worker pool). The
// chaos kill then takes the primary down — every stream on the shared
// connection fails with the connection's teardown error, and the
// hostage task completes through the standby's orphan re-dispatch with
// exactly-once step effects.
func TestFailoverE2EMuxedStreamsAcrossPrimaryKill(t *testing.T) {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(1123, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	f := bootFleet(t, fleet.Config{
		Seed: 1123, Store: db, Monitor: mon, Fault: inj,
		Runtime: runtime.DefaultConfig(), Gateway: chainGateway,
		Setup: pipeline(blockingMid(midEntered)),
	})
	primary := leader(t, f)

	conn, err := net.Dial("tcp", primary.Addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 16)
	defer cl.Close()

	// The doomed chain rides its own logical stream.
	doomed := cl.Stream(2)
	callDone := make(chan error, 1)
	go func() {
		_, cerr := doomed.Call(context.Background(), "pipeline",
			runtime.EncodeTask("task-mux-e2e", []byte("x")))
		callDone <- cerr
	}()
	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Sibling streams on the SAME connection complete their own chains
	// while the doomed stream's call is held hostage: per-stream
	// dispatch means the hostage occupies one worker, not the socket.
	const siblings = 4
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := cl.Stream(2)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, serr := s.Call(ctx, "pipeline", nil)
			if serr != nil {
				t.Errorf("sibling stream blocked behind hostage call: %v", serr)
				return
			}
			if string(out) != ".h.m.t" {
				t.Errorf("sibling chain output = %q, want .h.m.t", out)
			}
		}()
	}
	wg.Wait()
	select {
	case cerr := <-callDone:
		t.Fatalf("hostage call finished before the kill: %v", cerr)
	default:
	}

	// Kill the primary. The shared connection dies; the doomed stream's
	// in-flight call must surface the teardown, not hang.
	killAt := time.Now()
	inj.At(controller.KillControllerOp(primary.ID), 0)

	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call to the killed primary reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("muxed stream call never failed after the primary died")
	}
	// Post-teardown, every stream on the connection is dead with
	// ErrClosed semantics — new calls fail fast instead of queueing.
	if _, serr := cl.Stream(1).CallSync("pipeline", nil); serr == nil {
		t.Fatal("new stream on dead connection succeeded")
	}

	// The hostage chain completes through the standby's Recover.
	waitNoOrphans(t, store.NewCheckpointLog(db), 5*time.Second)
	completedIn := time.Since(killAt)
	assertExactlyOnce(t, db, "task-mux-e2e", chainSteps)
	if fo := controller.Failover(mon); fo.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", fo.Failovers)
	}
	bound := failoverBound.Seconds() + 2.0
	if completedIn.Seconds() > bound {
		t.Fatalf("orphan completed in %v, want under %.1fs", completedIn, bound)
	}
}
