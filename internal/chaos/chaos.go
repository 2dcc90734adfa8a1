// Package chaos is a deterministic fault-injection layer for the real
// execution substrate. The HiveMind paper's fault-tolerance claims
// (§3.2 respawn-on-failure, §4.6 straggler mitigation and failure
// recovery) are modelled probabilistically in internal/faas; this
// package lets the *live* stack — the framed RPC framework, the
// serverless runtime, and the revisioned store — experience the same
// failure modes on real connections so the hardened client (retries,
// deadlines, circuit breaking, reconnect) can be exercised end-to-end.
//
// Everything is seeded: given the same seed and the same sequence of
// operations, an Injector makes the same fault decisions, so chaos
// tests are reproducible under -race and in CI.
//
// Two consumption styles are provided:
//
//   - transport wrapping: WrapConn/WrapListener interpose on a
//     net.Conn/net.Listener and inject connection drops, latency
//     spikes, one-way partitions, and truncated frames at the byte
//     level — the RPC framework on top sees only what a flaky edge
//     network would produce;
//   - direct injection: store writes and runtime invocations consult
//     Fault(op) before doing work, standing in for a crashed container
//     or an unavailable database node.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is the root of every injected failure, so tests and
// callers can errors.Is their way to "this was chaos, not a real bug".
var ErrInjected = errors.New("chaos: injected fault")

// Direction selects which half of a duplex connection a partition
// blackholes.
type Direction int

const (
	// Inbound blackholes reads: bytes from the peer never arrive.
	Inbound Direction = 1 << iota
	// Outbound blackholes writes: bytes to the peer vanish (the write
	// "succeeds" so the sender cannot tell, exactly like a one-way
	// network partition).
	Outbound
	// Both partitions the connection completely.
	Both = Inbound | Outbound
)

// Config sets the per-operation fault probabilities. All probabilities
// are in [0,1] and evaluated independently per I/O operation (or per
// Fault call). The zero Config injects nothing.
type Config struct {
	// DropProb closes the connection mid-operation (a crashed peer or a
	// reset path). Reads fail immediately; writes fail after the drop.
	DropProb float64
	// DelayProb stalls an operation by a latency spike drawn uniformly
	// from [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// TruncateProb writes only a prefix of the buffer and then drops the
	// connection, producing a torn frame on the peer's read side.
	TruncateProb float64
	// FailProb makes Fault(op) return an injected error (used by the
	// store and runtime for non-transport faults such as a killed
	// container or a refused database write).
	FailProb float64
}

// Injector makes seeded fault decisions and wraps transports.
// It is safe for concurrent use.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg Config

	partition Direction
	pairParts map[string]bool // canonical pair key -> partitioned
	partCh    chan struct{}   // closed to release blocked readers on Heal

	// script, when non-empty, overrides probabilities for Fault: each
	// call pops one decision. Deterministic tests prefer scripts.
	script []bool

	// timed holds one-shot faults armed by At: op -> earliest fire time.
	timed map[string]time.Time

	faults   int
	delays   int
	drops    int
	truncs   int
	faultsOp map[string]int
}

// NewInjector returns an injector with the given seed and config.
func NewInjector(seed int64, cfg Config) *Injector {
	return &Injector{
		rng:      rand.New(rand.NewSource(seed)),
		cfg:      cfg,
		partCh:   make(chan struct{}),
		faultsOp: map[string]int{},
	}
}

// SetConfig replaces the fault probabilities (e.g. to stop injecting
// after a test's chaos phase).
func (in *Injector) SetConfig(cfg Config) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cfg = cfg
}

// Script queues explicit Fault decisions: true injects a fault, false
// lets the operation through. Once the script drains, probabilistic
// behaviour resumes. Scripting makes "fail the first N calls, then
// succeed" tests exactly reproducible.
func (in *Injector) Script(decisions ...bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.script = append(in.script, decisions...)
}

// At arms a one-shot fault for op: the first Fault(op) call at or after
// now+after injects, then the trigger disarms. Unlike Script it targets
// a point in time rather than a call ordinal, which is what scheduled
// kills need (e.g. controller.KillControllerOp mid-chain: the primary
// consults Fault every lease round, and the round that crosses the
// deadline crashes it). after <= 0 fires on the very next call. Re-arm
// by calling At again.
func (in *Injector) At(op string, after time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.timed == nil {
		in.timed = map[string]time.Time{}
	}
	in.timed[op] = time.Now().Add(after)
}

// Partition blackholes the given direction(s) on every wrapped
// connection until Heal is called. Blocked reads park until healed or
// the connection closes.
func (in *Injector) Partition(d Direction) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partition = d
}

// Heal clears every partition — global and pair-wise — and wakes
// blocked readers.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partition = 0
	in.pairParts = nil
	close(in.partCh)
	in.partCh = make(chan struct{})
}

// pairKey canonicalises an unordered endpoint pair.
func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// PartitionPair blackholes the link between the two named endpoints on
// every connection wrapped with WrapConnPair for that pair, in both
// directions, until HealPair or Heal: writes vanish (they "succeed",
// exactly like packets dropped in flight) and reads park. Other pairs
// keep flowing, so a test can cut one replica off from a quorum while
// the majority side keeps talking — the classic minority-partition
// split-brain setup.
func (in *Injector) PartitionPair(a, b string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.pairParts == nil {
		in.pairParts = map[string]bool{}
	}
	in.pairParts[pairKey(a, b)] = true
}

// HealPair reconnects one endpoint pair and wakes its blocked readers.
func (in *Injector) HealPair(a, b string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.pairParts, pairKey(a, b))
	close(in.partCh)
	in.partCh = make(chan struct{})
}

// PairPartitioned reports whether the link between a and b is cut.
func (in *Injector) PairPartitioned(a, b string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.pairParts[pairKey(a, b)]
}

// Stats reports how many faults of each kind were injected.
type Stats struct {
	Faults    int // Fault(op) errors
	Delays    int
	Drops     int
	Truncates int
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{Faults: in.faults, Delays: in.delays, Drops: in.drops, Truncates: in.truncs}
}

// FaultCount returns how many faults were injected for a given op.
func (in *Injector) FaultCount(op string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faultsOp[op]
}

// Fault decides whether the named operation fails. It returns nil to
// let the operation proceed, or an error wrapping ErrInjected. Store
// writes and runtime invocations call this before doing real work.
func (in *Injector) Fault(op string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	inject := false
	if at, ok := in.timed[op]; ok && !time.Now().Before(at) {
		inject = true
		delete(in.timed, op)
	} else if len(in.script) > 0 {
		inject = in.script[0]
		in.script = in.script[1:]
	} else if in.cfg.FailProb > 0 {
		inject = in.rng.Float64() < in.cfg.FailProb
	}
	if !inject {
		return nil
	}
	in.faults++
	in.faultsOp[op]++
	return fmt.Errorf("%w: %s", ErrInjected, op)
}

// decide draws the per-I/O fault decisions under the lock.
func (in *Injector) decide() (drop, truncate bool, delay time.Duration, part Direction, partCh chan struct{}) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		span := in.cfg.DelayMax - in.cfg.DelayMin
		d := in.cfg.DelayMin
		if span > 0 {
			d += time.Duration(in.rng.Int63n(int64(span)))
		}
		delay = d
		in.delays++
	}
	if in.cfg.TruncateProb > 0 && in.rng.Float64() < in.cfg.TruncateProb {
		truncate = true
		in.truncs++
	} else if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		drop = true
		in.drops++
	}
	return drop, truncate, delay, in.partition, in.partCh
}

// WrapConn interposes the injector on a connection.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in, closed: make(chan struct{})}
}

// WrapConnPair interposes the injector on a connection and tags it
// with the unordered endpoint pair (a, b), making it subject to
// PartitionPair in addition to every global fault. Wrapping the
// dialing side of a duplex link is enough for a symmetric cut: its
// writes vanish and its reads park, so neither direction delivers.
func (in *Injector) WrapConnPair(c net.Conn, a, b string) net.Conn {
	return &conn{Conn: c, in: in, pair: pairKey(a, b), closed: make(chan struct{})}
}

// WrapListener interposes the injector on every accepted connection.
func (in *Injector) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c), nil
}

// conn is the fault-injecting connection wrapper.
type conn struct {
	net.Conn
	in   *Injector
	pair string // canonical pair key ("" when not pair-tagged)

	closeOnce sync.Once
	closed    chan struct{}
}

func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
	})
	return err
}

// await sleeps for d but returns early if the connection closes.
func (c *conn) await(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

// blockWhilePartitioned parks until the partition heals or the
// connection closes; reports whether the connection closed.
func (c *conn) blockWhilePartitioned(dir Direction) bool {
	for {
		c.in.mu.Lock()
		part := c.in.partition
		ch := c.in.partCh
		c.in.mu.Unlock()
		if part&dir == 0 {
			return false
		}
		select {
		case <-ch: // healed; re-check
		case <-c.closed:
			return true
		}
	}
}

// pairCut reports whether this connection's pair is partitioned, with
// the heal channel to wait on.
func (c *conn) pairCut() (bool, chan struct{}) {
	if c.pair == "" {
		return false, nil
	}
	c.in.mu.Lock()
	defer c.in.mu.Unlock()
	return c.in.pairParts[c.pair], c.in.partCh
}

// blockWhilePairCut parks until this connection's pair heals or the
// connection closes; reports whether the connection closed.
func (c *conn) blockWhilePairCut() bool {
	for {
		cut, ch := c.pairCut()
		if !cut {
			return false
		}
		select {
		case <-ch: // a heal happened; re-check this pair
		case <-c.closed:
			return true
		}
	}
}

func (c *conn) Read(p []byte) (int, error) {
	drop, _, delay, part, _ := c.in.decide()
	if part&Inbound != 0 {
		if c.blockWhilePartitioned(Inbound) {
			return 0, fmt.Errorf("%w: read on dropped connection", ErrInjected)
		}
	}
	if c.blockWhilePairCut() {
		return 0, fmt.Errorf("%w: read on dropped connection", ErrInjected)
	}
	c.await(delay)
	if drop {
		c.Close()
		return 0, fmt.Errorf("%w: connection dropped on read", ErrInjected)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	drop, truncate, delay, part, _ := c.in.decide()
	c.await(delay)
	if part&Outbound != 0 {
		// One-way partition: the write vanishes but "succeeds" — the
		// sender cannot distinguish this from slow delivery.
		return len(p), nil
	}
	if cut, _ := c.pairCut(); cut {
		return len(p), nil // pair cut: the bytes drop in flight
	}
	if truncate && len(p) > 1 {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Close()
		return n, fmt.Errorf("%w: frame truncated after %d bytes", ErrInjected, n)
	}
	if drop {
		c.Close()
		return 0, fmt.Errorf("%w: connection dropped on write", ErrInjected)
	}
	return c.Conn.Write(p)
}
