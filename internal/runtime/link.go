package runtime

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"hivemind/internal/rpc"
)

// TransportKind names which fast path a link selected.
type TransportKind int

const (
	// TransportRing is the in-process shared-memory ring: no frames, no
	// serialization, no syscalls. Selected for co-located tiers.
	TransportRing TransportKind = iota
	// TransportStream is a logical stream multiplexed onto a shared TCP
	// connection: frames coalesce into writev batches and one slow call
	// cannot head-of-line block sibling streams. Selected for remote
	// tiers.
	TransportStream
)

func (k TransportKind) String() string {
	switch k {
	case TransportRing:
		return "ring"
	case TransportStream:
		return "stream"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// Link is a selected per-peer transport: the rpc.Transport the caller
// issues calls on, tagged with which fast path it rides.
type Link struct {
	rpc.Transport
	Kind TransportKind
}

// Peer describes where a neighbouring tier lives. Exactly one field is
// set: Gateway for a tier in this process, Addr for one across the
// network.
type Peer struct {
	Gateway *Gateway // co-located tier: share its address space
	Addr    string   // remote tier: host:port
}

// LinkerOptions tunes the per-link transports.
type LinkerOptions struct {
	// Callers is the per-stream concurrent-call pool for remote links
	// and the caller pool of the shared connection (<=0: 64).
	Callers int
	// Ring configures co-located rings (zero value: rpc defaults).
	Ring rpc.RingOptions
	// Dial replaces net.Dial for remote links (tests inject pipes).
	Dial func(addr string) (net.Conn, error)
}

// Linker owns a tier's outbound links and picks the fast path per peer:
// a shared-memory ring when the peer gateway is in this process, a
// multiplexed stream over one shared TCP connection per remote address
// otherwise. All streams to the same address share a single connection,
// so N logical links cost one socket and their frames coalesce into
// shared writev batches.
type Linker struct {
	opts LinkerOptions

	mu     sync.Mutex
	conns  map[string]*sharedConn // one per remote address
	rings  []*rpc.Ring
	closed bool
}

// sharedConn is one remote address's redial state. dial serialises
// (re)dials of this address only, so a hung dial parks the callers
// connecting to it while every other peer — and Close — proceeds.
type sharedConn struct {
	dial   sync.Mutex
	client atomic.Pointer[rpc.Client]
}

// NewLinker builds a link selector.
func NewLinker(opts LinkerOptions) *Linker {
	if opts.Callers <= 0 {
		opts.Callers = 64
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &Linker{opts: opts, conns: make(map[string]*sharedConn)}
}

// Connect selects and builds the transport for a peer. Co-located
// peers get a dedicated shm ring into the gateway's server; remote
// peers get a fresh logical stream on the address's shared multiplexed
// connection (dialled on first use).
func (l *Linker) Connect(p Peer) (*Link, error) {
	switch {
	case p.Gateway != nil && p.Addr != "":
		return nil, fmt.Errorf("runtime: peer is either co-located or remote, not both")
	case p.Gateway != nil:
		return l.local(p.Gateway)
	case p.Addr != "":
		return l.remote(p.Addr)
	default:
		return nil, fmt.Errorf("runtime: empty peer")
	}
}

func (l *Linker) local(g *Gateway) (*Link, error) {
	r, err := rpc.NewRing(g.Server(), l.opts.Ring)
	if err != nil {
		return nil, fmt.Errorf("runtime: ring to co-located gateway: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		r.Close()
		return nil, rpc.ErrClosed
	}
	l.rings = append(l.rings, r)
	return &Link{Transport: r, Kind: TransportRing}, nil
}

func (l *Linker) remote(addr string) (*Link, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, rpc.ErrClosed
	}
	sc := l.conns[addr]
	if sc == nil {
		sc = &sharedConn{}
		l.conns[addr] = sc
	}
	l.mu.Unlock()

	sc.dial.Lock()
	defer sc.dial.Unlock()
	c := sc.client.Load()
	if c == nil || !c.Healthy() {
		// First use, or the shared connection died: (re)dial it. Streams
		// on the dead conn already failed; new links get a fresh one.
		conn, err := l.opts.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("runtime: dialling %s: %w", addr, err)
		}
		if c != nil {
			c.Close()
		}
		c = rpc.NewClient(conn, l.opts.Callers)
		sc.client.Store(c)
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			// Close ran during the dial and may have missed this conn.
			c.Close()
			return nil, rpc.ErrClosed
		}
	}
	return &Link{Transport: c.Stream(l.opts.Callers), Kind: TransportStream}, nil
}

// Failover builds the hardened caller over one Peer per replica (the
// slice index is the replica id redirects refer to), each endpoint's
// fast path selected by Connect. Links are built lazily and rebuilt
// when they turn unhealthy (a ring whose gateway died, a shared conn
// that dropped), so a redirect that moves the primary from a co-located
// replica to a remote one also moves the calls from the ring onto a
// stream — and back. FailoverClient.Endpoint returns the *Link whose
// Kind says which fast path an endpoint rides.
func (l *Linker) Failover(peers []Peer, opts rpc.FailoverOptions) *rpc.FailoverClient {
	endpoints := make([]func() (rpc.Transport, error), len(peers))
	for i, p := range peers {
		p := p
		endpoints[i] = func() (rpc.Transport, error) {
			lk, err := l.Connect(p)
			if err != nil {
				return nil, err // not lk: a nil *Link is a non-nil Transport
			}
			return lk, nil
		}
	}
	return rpc.NewFailover(endpoints, opts)
}

// Close tears down every link: rings fail in-flight ring calls with
// rpc.ErrClosed, shared connections fail every stream riding them.
func (l *Linker) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	clients := make([]*rpc.Client, 0, len(l.conns))
	for _, sc := range l.conns {
		if c := sc.client.Load(); c != nil {
			clients = append(clients, c)
		}
	}
	rings := l.rings
	l.rings = nil
	l.mu.Unlock()

	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range rings {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
