package rpc

import (
	"fmt"
	"testing"
	"time"
)

// The hardened caller branches on three string-parsed errors. Each
// target checks the parser never panics on arbitrary text, that a wrapped
// error parses like a bare one, and that parse∘format is the identity
// on well-formed input. Corpora are seeded from the round-trip tests.

func FuzzRedirectTarget(f *testing.F) {
	for _, leader := range []int{-1, 0, 2, 7} {
		f.Add(string(NotLeaderError(leader)), leader)
	}
	f.Add("boom", 1)
	f.Add(notLeaderPrefix, 0)
	f.Add(notLeaderPrefix+"x", 0)
	f.Fuzz(func(t *testing.T, s string, leader int) {
		got, ok := RedirectTarget(ServerError(s))
		if wgot, wok := RedirectTarget(fmt.Errorf("wrapped: %w", ServerError(s))); wgot != got || wok != ok {
			t.Fatalf("wrapped %q parsed (%d, %v), bare (%d, %v)", s, wgot, wok, got, ok)
		}
		if _, plain := RedirectTarget(fmt.Errorf("%s", s)); plain {
			t.Fatalf("non-ServerError %q accepted", s)
		}
		if got, ok := RedirectTarget(NotLeaderError(leader)); !ok || got != leader {
			t.Fatalf("RedirectTarget(NotLeaderError(%d)) = %d, %v", leader, got, ok)
		}
	})
}

func FuzzFencedTerms(f *testing.F) {
	f.Add(string(FencedError(3, 7)), uint64(3), uint64(7))
	f.Add(string(FencedError(2, 5)), uint64(2), uint64(5))
	f.Add(fencedPrefix+"12", uint64(0), uint64(0))
	f.Add("rpc: fenced; term=x fence=y", uint64(1), ^uint64(0))
	f.Add(string(NotLeaderError(1)), uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, s string, token, fence uint64) {
		gt, gf, ok := FencedTerms(ServerError(s))
		if ok && !IsFenced(ServerError(s)) {
			t.Fatalf("%q has terms but is not fenced", s)
		}
		if wt, wf, wok := FencedTerms(fmt.Errorf("wrapped: %w", ServerError(s))); wt != gt || wf != gf || wok != ok {
			t.Fatalf("wrapped %q parsed (%d, %d, %v), bare (%d, %d, %v)", s, wt, wf, wok, gt, gf, ok)
		}
		err := FencedError(token, fence)
		if gt, gf, ok := FencedTerms(err); !ok || gt != token || gf != fence || !IsFenced(err) {
			t.Fatalf("FencedTerms(FencedError(%d, %d)) = %d, %d, %v", token, fence, gt, gf, ok)
		}
	})
}

func FuzzShedRetryAfter(f *testing.F) {
	f.Add(string(ShedError(25*time.Millisecond)), int64(25*time.Millisecond))
	f.Add(string(ShedError(0)), int64(-time.Second))
	f.Add(shedPrefix+"abc", int64(1500*time.Microsecond))
	f.Add(shedPrefix+"99999999999999999999", int64(time.Hour))
	f.Add(deadlinePrefix+"5", int64(0))
	f.Fuzz(func(t *testing.T, s string, ns int64) {
		got, ok := ShedRetryAfter(ServerError(s))
		if ok && !IsShed(ServerError(s)) {
			t.Fatalf("%q has a retry-after but is not a shed", s)
		}
		if wgot, wok := ShedRetryAfter(fmt.Errorf("wrapped: %w", ServerError(s))); wgot != got || wok != ok {
			t.Fatalf("wrapped %q parsed (%v, %v), bare (%v, %v)", s, wgot, wok, got, ok)
		}
		// The wire form carries whole, non-negative milliseconds.
		want := time.Duration(ns).Truncate(time.Millisecond)
		if want < 0 {
			want = 0
		}
		err := ShedError(time.Duration(ns))
		if got, ok := ShedRetryAfter(err); !ok || got != want || !IsShed(err) {
			t.Fatalf("ShedRetryAfter(ShedError(%v)) = %v, %v; want %v", time.Duration(ns), got, ok, want)
		}
	})
}
