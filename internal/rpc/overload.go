package rpc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the overload-control vocabulary of the RPC layer: the
// typed errors an overloaded server returns (shed-on-SLO and
// deadline-expired responses, both wire-parseable like NotLeaderError),
// and the shared retry budget that keeps layered retry loops
// (FailoverClient, gateway respawns) from multiplying
// into a retry storm when the fleet is already saturated — the classic
// ingredient of metastable collapse the HiveMind front door must not
// have.

// shedPrefix marks the response of a server that refused work to
// protect its SLO. The suffix carries the retry-after hint in
// milliseconds.
const shedPrefix = "rpc: overloaded; retry-after-ms="

// ShedError builds the standard shed response an overloaded server
// returns: the request was NOT executed, the server is healthy, and
// the caller should wait at least retryAfter before offering the
// request again. Clients must not count a shed as a failure (it says
// nothing about server health — only about load) and must not retry it
// inside the same call, or shedding would amplify the very overload it
// protects against.
func ShedError(retryAfter time.Duration) ServerError {
	ms := retryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return ServerError(shedPrefix + strconv.FormatInt(ms, 10))
}

// IsShed reports whether err is a shed response (possibly after
// crossing the wire as a ServerError).
func IsShed(err error) bool {
	var se ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), shedPrefix)
}

// ShedRetryAfter extracts the retry-after hint from a shed response.
// ok is false for every other error.
func ShedRetryAfter(err error) (d time.Duration, ok bool) {
	var se ServerError
	if !errors.As(err, &se) {
		return 0, false
	}
	s := string(se)
	if !strings.HasPrefix(s, shedPrefix) {
		return 0, false
	}
	ms, convErr := strconv.ParseInt(s[len(shedPrefix):], 10, 64)
	if convErr != nil {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// deadlinePrefix marks the response for a request whose propagated
// deadline had already expired when the server was about to execute it.
// The suffix reports how late the request was, in milliseconds.
const deadlinePrefix = "rpc: deadline exceeded; late-ms="

// DeadlineExceededError reports work refused (or failed) because the
// caller's propagated absolute deadline had already passed: executing
// it would burn server capacity on a response nobody is waiting for.
// Like a shed, it proves the server is alive; unlike a shed, waiting
// and re-offering the same deadline cannot help.
type DeadlineExceededError struct {
	// Late is how far past the deadline the request was when dropped.
	Late time.Duration
}

// Error implements error in the wire-parseable form.
func (e *DeadlineExceededError) Error() string {
	ms := e.Late.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return deadlinePrefix + strconv.FormatInt(ms, 10)
}

// IsDeadlineExceeded reports whether err is a deadline expiry: the
// typed error, its wire form (ServerError), or a context deadline.
func IsDeadlineExceeded(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var de *DeadlineExceededError
	if errors.As(err, &de) {
		return true
	}
	var se ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), deadlinePrefix)
}

// ErrRetryBudgetExhausted is returned (wrapped around the attempt's
// real error) when a retry loop wanted to re-attempt but the shared
// retry budget was empty: under sustained failure the layers stop
// multiplying attempts and surface the error instead.
var ErrRetryBudgetExhausted = errors.New("rpc: retry budget exhausted")

// RetryBudget is a token bucket that bounds fleet-wide retry
// amplification: every success deposits Ratio tokens (default 0.1 — at
// most ~10% extra load from retries in steady state), every retry
// withdraws one. When the bucket is empty, retry loops give up
// immediately instead of hammering an already-failing service. One
// budget is meant to be shared across every retry layer of a client
// process (FailoverClient retries and endpoint sweeps, gateway step
// respawns), so stacked layers draw from one allowance
// rather than multiplying each other.
//
// A nil *RetryBudget disables budgeting (Withdraw always succeeds), so
// every consumer can thread an optional budget without nil checks.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// DefaultRetryBudgetRatio is the steady-state retry allowance: ~10% of
// successful calls may be retried.
const DefaultRetryBudgetRatio = 0.1

// NewRetryBudget builds a budget that earns ratio tokens per success
// (<=0: DefaultRetryBudgetRatio) capped at max (<=0: 100). The bucket
// starts full so cold-start blips retry freely; only sustained failure
// drains it.
func NewRetryBudget(ratio, max float64) *RetryBudget {
	if ratio <= 0 {
		ratio = DefaultRetryBudgetRatio
	}
	if max <= 0 {
		max = 100
	}
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// Success deposits the per-success earn into the bucket.
func (b *RetryBudget) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Withdraw takes one token for a retry, reporting whether the retry is
// allowed. A nil budget always allows.
func (b *RetryBudget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (diagnostics; 0 for nil).
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// budgetExhausted wraps an attempt error with the budget marker.
func budgetExhausted(lastErr error) error {
	if lastErr == nil {
		return ErrRetryBudgetExhausted
	}
	return fmt.Errorf("%w (last attempt: %v)", ErrRetryBudgetExhausted, lastErr)
}
