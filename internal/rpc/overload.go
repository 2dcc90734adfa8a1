package rpc

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"time"
)

// This file is the overload-control vocabulary of the RPC layer: the
// typed errors an overloaded server returns (shed-on-SLO and
// deadline-expired responses, both wire-parseable like NotLeaderError).
// FailoverClient returns both without retrying them, so an overloaded
// fleet is never offered more work than its callers sent.

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
