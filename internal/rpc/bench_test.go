package rpc

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

func benchPair(b *testing.B, callers int) *Client {
	b.Helper()
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cc, sc := Pair()
	srv.ServeConn(sc)
	c := NewClient(cc, callers)
	b.Cleanup(func() { c.Close(); srv.Close() })
	return c
}

// benchTCP is benchPair over a real TCP loopback socket, so the
// benchmarks also measure actual syscall and kernel-buffer behaviour
// (net.Pipe is a synchronous in-process rendezvous with no buffering).
func benchTCP(b *testing.B, callers int) *Client {
	b.Helper()
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.ServeConn(conn)
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(cc, callers)
	b.Cleanup(func() {
		c.Close()
		srv.Close()
		ln.Close()
		<-done
	})
	return c
}

// BenchmarkCallSync64B measures small-RPC round trips over the
// in-process transport (the software baseline the FPGA offload is
// compared against).
func BenchmarkCallSync64B(b *testing.B) {
	c := benchPair(b, 8)
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallSync("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallSync1MB measures bulk payload round trips.
func BenchmarkCallSync1MB(b *testing.B) {
	c := benchPair(b, 8)
	payload := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallSync("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedCalls measures multiplexed in-flight throughput
// through the caller pool.
func BenchmarkPipelinedCalls(b *testing.B) {
	pipelined(b, benchPair(b, pipelinedCallers))
}

// pipelinedCallers keeps the caller pool full: that many goroutines
// share b.N calls.
const pipelinedCallers = 64

func pipelined(b *testing.B, c *Client) {
	payload := make([]byte, 64)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < pipelinedCallers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.CallSync("echo", payload); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCallSync64BTCP is BenchmarkCallSync64B over TCP loopback:
// every frame crosses the kernel, so write coalescing and buffered
// reads show up as fewer syscalls per call.
func BenchmarkCallSync64BTCP(b *testing.B) {
	c := benchTCP(b, 8)
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallSync("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedCallsTCP measures multiplexed throughput over TCP
// loopback, where the coalescing writer batches the pipelined frames
// into far fewer syscalls than one-write-per-frame.
func BenchmarkPipelinedCallsTCP(b *testing.B) {
	pipelined(b, benchTCP(b, pipelinedCallers))
}

func benchRing(b *testing.B, opts RingOptions) *Ring {
	b.Helper()
	srv := NewServer()
	srv.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	r, err := NewRing(srv, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return r
}

// BenchmarkRingCallSync64B measures the in-process shared-memory fast
// path: no frames, no syscalls, one ring slot round trip — the number
// the accel model's 2.1 µs hardware RTT is cross-checked against.
func BenchmarkRingCallSync64B(b *testing.B) {
	r := benchRing(b, RingOptions{})
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.CallSync("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingCallSync64BParallel drives the ring from all procs at
// once: MPMC contention on the ticket counters and completion CASes.
func BenchmarkRingCallSync64BParallel(b *testing.B) {
	r := benchRing(b, RingOptions{Slots: 1024, Consumers: 4})
	b.SetBytes(64)
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, 64)
		for pb.Next() {
			if _, err := r.CallSync("echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMuxPipelinedCallsTCP measures pipelined throughput over one
// multiplexed TCP connection: each parallel worker owns a logical
// stream with a small caller pool and issues synchronous calls, so
// the cost per op is frame+writev+dispatch — no per-call goroutine
// spawn, no shared-pool head-of-line wait.
func BenchmarkMuxPipelinedCallsTCP(b *testing.B) {
	c := benchTCP(b, 64)
	b.SetBytes(64)
	b.SetParallelism(32) // pipelining depth: streams per proc
	b.RunParallel(func(pb *testing.PB) {
		s := c.Stream(8)
		payload := make([]byte, 64)
		for pb.Next() {
			if _, err := s.CallSync("echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMuxPipelinedCalls is the in-process (net.Pipe) variant of
// the multiplexed pipelined benchmark.
func BenchmarkMuxPipelinedCalls(b *testing.B) {
	c := benchPair(b, 64)
	b.SetBytes(64)
	b.SetParallelism(32)
	b.RunParallel(func(pb *testing.PB) {
		s := c.Stream(8)
		payload := make([]byte, 64)
		for pb.Next() {
			if _, err := s.CallSync("echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
