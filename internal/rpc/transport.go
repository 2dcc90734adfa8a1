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
//   - *Stream: one logical stream multiplexed over a shared TCP
//     connection with writev buffer lending (the §4.5 RPC offload
//     stand-in);
//   - *Client: a whole framed connection (stream 0).
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
	// Healthy reports false (for a Stream: only the stream, unless it
	// owns its connection; sibling streams on a shared one stay up).
	Close() error
}

var (
	_ Transport = (*Client)(nil)
	_ Transport = (*Stream)(nil)
	_ Transport = (*Ring)(nil)
)
