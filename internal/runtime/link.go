package runtime

import (
	"fmt"
	"net"
	"sync"

	"hivemind/internal/rpc"
)

// Link is a selected per-peer transport: the rpc.Transport the caller
// issues calls on. A co-located tier's is an *rpc.Ring, the in-process
// shared-memory ring (no frames, no serialization, no syscalls); a
// remote tier's is an *rpc.Client on a framed TCP connection of the
// link's own (rpc.ConnEndpoint), whose frames coalesce into writev
// batches and whose full server queue sheds the overflow with
// rpc.ShedError instead of blocking.
type Link struct {
	rpc.Transport
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
	// Ring configures co-located rings (zero value: rpc defaults).
	Ring rpc.RingOptions
	// Dial replaces net.Dial for remote links (tests inject pipes).
	Dial func(addr string) (net.Conn, error)
}

// linkCallers is the caller pool of each remote link's stream.
const linkCallers = 64

// Linker owns a tier's outbound links and picks the fast path per peer:
// a shared-memory ring when the peer gateway is in this process, a
// framed TCP connection of its own otherwise (rpc.ConnEndpoint, the
// one factory every TCP caller builds through).
type Linker struct {
	opts LinkerOptions

	mu     sync.Mutex
	links  []rpc.Transport // built links Close fails; unhealthy ones are dropped
	closed bool
}

// NewLinker builds a link selector.
func NewLinker(opts LinkerOptions) *Linker {
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &Linker{opts: opts}
}

// Connect selects and builds the transport for a peer. Co-located
// peers get a dedicated shm ring into the gateway's server; remote
// peers get a stream on a freshly dialled connection of their own.
func (l *Linker) Connect(p Peer) (*Link, error) {
	switch {
	case p.Gateway != nil && p.Addr != "":
		return nil, fmt.Errorf("runtime: peer is either co-located or remote, not both")
	case p.Gateway != nil:
		r, err := rpc.NewRing(p.Gateway.Server(), l.opts.Ring)
		if err != nil {
			return nil, fmt.Errorf("runtime: ring to co-located gateway: %w", err)
		}
		return l.track(r)
	case p.Addr != "":
		dial := func() (net.Conn, error) { return l.opts.Dial(p.Addr) }
		s, err := rpc.ConnEndpoint(dial, linkCallers)()
		if err != nil {
			return nil, fmt.Errorf("runtime: dialling %s: %w", p.Addr, err)
		}
		return l.track(s)
	default:
		return nil, fmt.Errorf("runtime: empty peer")
	}
}

// track records a built link so Close can fail it, closing and dropping
// the links that have turned unhealthy since (a ring whose gateway
// died, a stream whose connection dropped), so the list holds live
// links only however often Failover rebuilds.
func (l *Linker) track(tr rpc.Transport) (*Link, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		tr.Close()
		return nil, rpc.ErrClosed
	}
	live := l.links[:0]
	for _, t := range l.links {
		if t.Healthy() {
			live = append(live, t)
		} else {
			t.Close()
		}
	}
	l.links = append(live, tr)
	return &Link{Transport: tr}, nil
}

// Failover builds the hardened caller over one Peer per replica (the
// slice index is the replica id redirects refer to), each endpoint's
// fast path selected by Connect. Links are built lazily and rebuilt
// when they turn unhealthy (a ring whose gateway died, a connection
// that dropped), so a redirect that moves the primary from a co-located
// replica to a remote one also moves the calls from the ring onto a
// stream — and back.
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

// Close tears down every link: calls on rings and streams alike fail
// with rpc.ErrClosed.
func (l *Linker) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	links := l.links
	l.links = nil
	l.mu.Unlock()

	var first error
	for _, t := range links {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
