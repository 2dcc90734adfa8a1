package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func wrappedPipe(in *Injector) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return in.WrapConn(a), b
}

func TestScriptedFaultsAreExact(t *testing.T) {
	in := NewInjector(1, Config{})
	in.Script(true, false, true)
	if err := in.Fault("op"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first decision = %v, want injected", err)
	}
	if err := in.Fault("op"); err != nil {
		t.Fatalf("second decision = %v, want nil", err)
	}
	if err := in.Fault("op"); !errors.Is(err, ErrInjected) {
		t.Fatalf("third decision = %v, want injected", err)
	}
	if err := in.Fault("op"); err != nil {
		t.Fatalf("drained script should fall back to prob 0, got %v", err)
	}
	if in.FaultCount("op") != 2 || in.Stats().Faults != 2 {
		t.Fatalf("fault counters = %d/%d, want 2/2", in.FaultCount("op"), in.Stats().Faults)
	}
}

func TestSeededFaultsAreDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewInjector(42, Config{FailProb: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fault("x") != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded injectors", i)
		}
	}
}

func TestDropClosesConnection(t *testing.T) {
	in := NewInjector(3, Config{DropProb: 1})
	cw, peer := wrappedPipe(in)
	defer peer.Close()
	go func() { io.Copy(io.Discard, peer) }()
	if _, err := cw.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on dropping conn = %v, want injected", err)
	}
	if in.Stats().Drops == 0 {
		t.Fatal("drop not counted")
	}
}

func TestTruncateWritesPrefixThenCloses(t *testing.T) {
	in := NewInjector(4, Config{TruncateProb: 1})
	cw, peer := wrappedPipe(in)
	defer peer.Close()
	got := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(peer)
		got <- buf
	}()
	payload := []byte("0123456789")
	if _, err := cw.Write(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write err = %v", err)
	}
	if buf := <-got; !bytes.Equal(buf, payload[:len(payload)/2]) {
		t.Fatalf("peer saw %q, want the first half of %q", buf, payload)
	}
}

func TestOutboundPartitionSwallowsWrites(t *testing.T) {
	in := NewInjector(5, Config{})
	in.Partition(Outbound)
	cw, peer := wrappedPipe(in)
	defer cw.Close()
	defer peer.Close()
	n, err := cw.Write([]byte("vanishes"))
	if err != nil || n != 8 {
		t.Fatalf("partitioned write = (%d, %v), want silent success", n, err)
	}
	peer.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := peer.Read(make([]byte, 8)); err == nil {
		t.Fatal("bytes crossed an outbound partition")
	}
}

func TestInboundPartitionBlocksUntilHealed(t *testing.T) {
	in := NewInjector(6, Config{})
	in.Partition(Inbound)
	cw, peer := wrappedPipe(in)
	defer cw.Close()
	defer peer.Close()
	go peer.Write([]byte("late"))
	done := make(chan error, 1)
	go func() {
		_, err := cw.Read(make([]byte, 4))
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("read completed through an inbound partition")
	case <-time.After(30 * time.Millisecond):
	}
	in.Heal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read after heal = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read did not resume after Heal")
	}
}

func TestDelayInjectsLatency(t *testing.T) {
	in := NewInjector(7, Config{DelayProb: 1, DelayMin: 30 * time.Millisecond, DelayMax: 30 * time.Millisecond})
	cw, peer := wrappedPipe(in)
	defer cw.Close()
	defer peer.Close()
	go func() { io.Copy(io.Discard, peer) }()
	start := time.Now()
	if _, err := cw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay spike not applied: write took %v", d)
	}
	if in.Stats().Delays == 0 {
		t.Fatal("delay not counted")
	}
}

func TestWrapListenerInjectsOnAccepted(t *testing.T) {
	in := NewInjector(8, Config{DropProb: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wln := in.WrapListener(ln)
	defer wln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := wln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	dialer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	srvConn := <-accepted
	defer srvConn.Close()
	if _, err := srvConn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn not wrapped: write err = %v", err)
	}
}

// A pair partition cuts exactly one link, both directions, and heals.
func TestPartitionPairCutsOnlyThatLink(t *testing.T) {
	in := NewInjector(5, Config{})
	ab1, ab2 := net.Pipe()
	ac1, ac2 := net.Pipe()
	connAB := in.WrapConnPair(ab1, "a", "b")
	connAC := in.WrapConnPair(ac1, "a", "c")
	defer connAB.Close()
	defer connAC.Close()
	defer ab2.Close()
	defer ac2.Close()

	in.PartitionPair("b", "a") // order must not matter
	if !in.PairPartitioned("a", "b") || in.PairPartitioned("a", "c") {
		t.Fatal("partition state wrong")
	}

	// Writes on the cut pair vanish but "succeed"; the peer sees nothing.
	done := make(chan error, 1)
	go func() {
		_, err := connAB.Write([]byte("lost"))
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("cut-pair write errored: %v", err)
	}
	// Reads on the cut pair park until heal.
	readDone := make(chan struct{})
	go func() {
		buf := make([]byte, 8)
		connAB.Read(buf)
		close(readDone)
	}()
	select {
	case <-readDone:
		t.Fatal("read returned while pair was cut")
	case <-time.After(30 * time.Millisecond):
	}

	// The other pair keeps flowing.
	go ac2.Write([]byte("hi"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(connAC, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("healthy pair read = %q, %v", buf, err)
	}

	// Heal wakes the parked reader and traffic resumes.
	in.HealPair("a", "b")
	go ab2.Write([]byte("back"))
	select {
	case <-readDone:
	case <-time.After(time.Second):
		t.Fatal("reader never woke after HealPair")
	}
}
