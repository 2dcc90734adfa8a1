package main

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// Inputs are pure functions of (-seed, op index): the programs under
// test see only the bytes generated here, and the same seed always
// yields the same bytes and the same schedule.

// noTrace marks an op id whose spans must not be recorded: warm-up
// ops, and open-loop arrivals that share a payload with a neighbour
// (their server-side spans could not be told apart).
const noTrace = uint64(1) << 62

const maxPayload = 64 << 10

// splitmix64 is the id → pool-offset hash.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// payloadPool is seeded random bytes that payloads are cut from, so
// building a 64 KiB payload costs one copy, not 64 Ki random draws.
type payloadPool struct {
	seed  uint64
	bytes []byte
}

func newPayloadPool(seed int64) *payloadPool {
	p := &payloadPool{seed: uint64(seed), bytes: make([]byte, 1<<20)}
	rand.New(rand.NewSource(seed)).Read(p.bytes)
	return p
}

// fill writes the payload of op id into dst[:size] and returns it: the
// id in the first 8 bytes (which makes every payload unique and lets
// the span wrappers recover the op from the bytes alone), then a
// window of the pool chosen by hashing (seed, id).
func (p *payloadPool) fill(dst []byte, id uint64, size int) []byte {
	dst = dst[:size]
	binary.BigEndian.PutUint64(dst, id)
	off := splitmix64(p.seed^splitmix64(id)) % uint64(len(p.bytes)-maxPayload)
	copy(dst[8:], p.bytes[off:])
	return dst
}

// opOf recovers the op id fill stored.
func opOf(payload []byte) uint64 {
	if len(payload) < 8 {
		return noTrace
	}
	return binary.BigEndian.Uint64(payload)
}

// arrival is one open-loop op: when it is due, and which payload.
type arrival struct {
	due  time.Duration // offset from the start of the window
	id   uint64        // payload id; a repeat carries its predecessor's
	size int
}

// mixedSizes is the http-mixed-open payload mix: 75 % 64 B, 23 % 4 KiB
// (the rpc layer's buffer-lending threshold), 2 % 64 KiB.
var mixedSizes = [...]struct {
	share float64
	size  int
}{{0.75, 64}, {0.23, 4 << 10}, {0.02, 64 << 10}}

// repeatShare of arrivals resend the previous payload at the previous
// due time, so identical jobs are in flight together and coalesce.
const repeatShare = 0.25

// makeSchedule draws arrivals at rate per second for the given
// duration: a Poisson process of fresh payloads at (1 − repeatShare)
// of the rate, each followed by repeats with probability repeatShare.
// Arrivals involved in a repeat pair carry the noTrace bit: either
// one may be the one that dispatches.
func makeSchedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / (rate * (1 - repeatShare)) * float64(time.Second))
		if at >= d {
			return out
		}
		u, r := rng.Float64(), rng.Float64()
		if n := len(out); n > 0 && r < repeatShare {
			out[n-1].id |= noTrace
			prev := out[n-1]
			out = append(out, arrival{due: prev.due, id: prev.id, size: prev.size})
			at = prev.due
			continue
		}
		a := arrival{due: at, id: uint64(len(out)), size: mixedSizes[len(mixedSizes)-1].size}
		for _, c := range mixedSizes {
			if u < c.share {
				a.size = c.size
				break
			}
			u -= c.share
		}
		out = append(out, a)
	}
}
