package rpc

import (
	"errors"
	"strconv"
	"strings"
)

// fencedPrefix marks the response of a store (or the gateway fronting
// it) that rejected a term-stamped mutation because the writer's
// controller term is behind the fence — proof the serving replica was
// deposed while the request was in flight. The suffix carries both
// terms so clients and logs can see how stale the writer was.
const fencedPrefix = "rpc: fenced; term="

// FencedError builds the wire-parseable rejection for a stale-term
// write: the request did NOT execute, and re-offering it to the same
// endpoint cannot help — a newer primary exists somewhere else. Like
// NotLeaderError it is a routing signal, not a failure: leader-
// following clients re-route without counting a retry.
func FencedError(token, fence uint64) ServerError {
	return ServerError(fencedPrefix + strconv.FormatUint(token, 10) +
		" fence=" + strconv.FormatUint(fence, 10))
}

// IsFenced reports whether err is a fence rejection (possibly after
// crossing the wire as a ServerError).
func IsFenced(err error) bool {
	var se ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), fencedPrefix)
}
