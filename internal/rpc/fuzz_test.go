package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
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

// FuzzFencedTerms: a fence rejection is recognised by its prefix alone,
// wrapped or bare, and its wire form carries both terms.
func FuzzFencedTerms(f *testing.F) {
	f.Add(string(FencedError(3, 7)), uint64(3), uint64(7))
	f.Add(string(FencedError(2, 5)), uint64(2), uint64(5))
	f.Add(fencedPrefix+"12", uint64(0), uint64(0))
	f.Add("rpc: fenced; term=x fence=y", uint64(1), ^uint64(0))
	f.Add(string(NotLeaderError(1)), uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, s string, token, fence uint64) {
		fenced := IsFenced(ServerError(s))
		if fenced != strings.HasPrefix(s, fencedPrefix) {
			t.Fatalf("IsFenced(%q) = %v", s, fenced)
		}
		if IsFenced(fmt.Errorf("wrapped: %w", ServerError(s))) != fenced {
			t.Fatalf("wrapping %q changed IsFenced", s)
		}
		err := FencedError(token, fence)
		if want := fmt.Sprintf("%s%d fence=%d", fencedPrefix, token, fence); string(err) != want || !IsFenced(err) {
			t.Fatalf("FencedError(%d, %d) = %q, want %q", token, fence, err, want)
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

// FuzzReadFrame holds the frame decoder, mux stream header included, to
// its contract: arbitrary bytes never panic it, it rejects lengths
// outside [11, maxFrame] and method lengths that run past the frame, and
// it reads back exactly what each encoder wrote — kind, call id with its
// stream bits, method, the request's deadline field and payload, in the
// contiguous and the lent-payload form.
func FuzzReadFrame(f *testing.F) {
	valid, _ := encodeRequest(7, "echo", 0, []byte("x"), false)
	f.Add(*valid, byte(kindRequest), uint16(0), uint64(7), "echo", int64(0), []byte("x"))
	f.Add([]byte{0, 0, 0, 10, kindRequest}, byte(kindResponse), uint16(3), uint64(1), "", int64(0), []byte{})
	f.Add([]byte{0, 0, 0, 11, kindRequest, 0, 0, 0, 0, 0, 0, 0, 1, 0, 9}, byte(kindError), uint16(0xFFFF), streamSeqMask, "m", int64(-1), []byte("boom"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, byte(kindRequest), uint16(1), uint64(42), "recognize", time.Now().UnixNano(), make([]byte, lendMin))
	f.Fuzz(func(t *testing.T, raw []byte, kind byte, stream uint16, seq uint64, method string, dl int64, payload []byte) {
		fr, err := readFrame(bytes.NewReader(raw))
		if len(raw) >= 4 {
			n := binary.BigEndian.Uint32(raw)
			whole := len(raw) >= 4+int(n)
			switch {
			case n < 11 || n > maxFrame:
				if err == nil {
					t.Fatalf("frame length %d accepted", n)
				}
			case whole && 11+int(binary.BigEndian.Uint16(raw[13:15])) > int(n):
				if err == nil {
					t.Fatal("method running past the frame accepted")
				}
			case whole && err != nil:
				t.Fatalf("well-formed frame rejected: %v", err)
			case err == nil && (fr.kind != raw[4] || 11+len(fr.method)+len(fr.payload) != int(n)):
				t.Fatalf("frame of length %d decoded as kind %d, %d+%d body bytes", n, fr.kind, len(fr.method), len(fr.payload))
			}
		}

		callID := uint64(stream)<<streamShift | seq&streamSeqMask
		check := func(enc string, wire []byte, wantKind byte, withDL bool) {
			t.Helper()
			fr, err := readFrame(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("%s: %v", enc, err)
			}
			if fr.kind != wantKind || fr.callID != callID || streamOf(fr.callID) != stream || string(fr.method) != method {
				t.Fatalf("%s: read kind %d id %#x (stream %d) method %q, wrote %d %#x (%d) %q",
					enc, fr.kind, fr.callID, streamOf(fr.callID), fr.method, wantKind, callID, stream, method)
			}
			body := fr.payload
			if withDL {
				if len(body) < 8 || int64(binary.BigEndian.Uint64(body)) != dl {
					t.Fatalf("%s: deadline prefix %x, wrote %d", enc, body[:min(8, len(body))], dl)
				}
				body = body[8:]
			}
			if !bytes.Equal(body, payload) {
				t.Fatalf("%s: payload %q, wrote %q", enc, body, payload)
			}
		}
		if buf, err := encodeFrame(kind, callID, method, payload); err == nil {
			check("encodeFrame", *buf, kind, false)
		}
		if hdr, err := encode(kind, callID, method, nil, payload, true); err == nil {
			check("encode lent", append(*hdr, payload...), kind, false)
		}
		if buf, err := encodeRequest(callID, method, dl, payload, false); err == nil {
			check("encodeRequest", *buf, kindRequest, true)
		}
		if hdr, err := encodeRequest(callID, method, dl, payload, true); err == nil {
			check("encodeRequest lent", append(*hdr, payload...), kindRequest, true)
		}
	})
}
