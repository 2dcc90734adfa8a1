package rpc

import "context"

// Transport is the minimal per-link calling surface every data-plane
// fast path implements, so the live stack can select the best
// transport per link without changing call sites:
//
//   - *Ring: the in-process shared-memory ring for co-located tiers —
//     no serialization, no syscalls, sub-microsecond round trips
//     (the software realization of the paper's §4.4 shared-memory
//     communication between functions on one node);
//   - *Client: a framed TCP connection with writev buffer lending (the
//     §4.5 RPC offload stand-in), calling on its default stream — what
//     ConnEndpoint builds, so what every TCP caller rides;
//   - *Stream: one more logical stream multiplexed over a Client's
//     connection, with its own caller pool.
//
// The hardened caller (FailoverClient) wraps a Transport's failure
// modes rather than implementing it: it adds retries, rebuilds and
// routing on top.
type Transport interface {
	// Call performs a blocking call bounded by ctx.
	Call(ctx context.Context, method string, payload []byte) ([]byte, error)
	// CallSync performs a blocking call with no deadline.
	CallSync(method string, payload []byte) ([]byte, error)
	// Healthy reports whether the transport can still carry calls.
	Healthy() bool
	// Close tears the transport down: later calls return ErrClosed and
	// Healthy reports false (for a Stream: only the stream; the
	// connection and sibling streams stay up).
	Close() error
}

var (
	_ Transport = (*Client)(nil)
	_ Transport = (*Stream)(nil)
	_ Transport = (*Ring)(nil)
)
