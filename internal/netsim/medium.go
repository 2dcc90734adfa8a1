// Package netsim models the network substrate between edge devices and
// the backend cloud: a shared wireless medium (the paper's two 867 Mbps
// MU-MIMO routers), the cloud fabric (10 GbE NICs into a 40 Gbps ToR),
// per-message protocol-processing overheads, and the FPGA RPC
// acceleration fabric of §4.5 that removes almost all of the processing
// overhead (2.1 µs RTT between servers on the same ToR).
//
// Transfers are modelled with a max-min fair-share fluid model: all
// active flows on a medium share its capacity equally (subject to an
// optional per-flow cap), so congestion, saturation knees (Fig. 3b) and
// bandwidth time-series (Fig. 14b) emerge from the flow dynamics rather
// than being scripted.
//
// Because every active flow drains at the same instantaneous rate, the
// model admits an O(log n) implementation: track the cumulative
// per-flow drain D(t) = ∫ rate dt; a flow arriving when the drain is d0
// with size s completes when D reaches d0 + s. Completions pop from a
// heap keyed by that virtual finish value, so the medium stays fast
// even with tens of thousands of backlogged flows (the saturated
// centralized configurations at 1000-drone scale).
package netsim

import (
	"container/heap"
	"math"

	"hivemind/internal/sim"
	"hivemind/internal/stats"
)

// completionSlackBytes is the sub-byte residue below which a flow counts
// as delivered. Transfers are sized in whole bytes, so anything under a
// thousandth of a byte is floating-point noise.
const completionSlackBytes = 1e-3

// Medium is a shared transmission resource with max-min fair sharing
// among active flows.
type Medium struct {
	eng        *sim.Engine
	capacity   float64 // bytes per second, aggregate
	perFlowCap float64 // bytes per second per flow (0 = unlimited)

	drain      float64 // cumulative per-flow bytes drained since t=0
	flows      flowHeap
	seq        uint64
	lastUpdate sim.Time
	next       sim.Timer // the next completion: record kind, re-posted
	kind       uint8

	meter *stats.Meter // bytes delivered, for bandwidth reporting
}

// flow is an in-flight transfer and the record its completion runs.
type flow struct {
	vfinish float64 // drain value at which the flow completes
	size    float64
	seq     uint64
	kind    uint8
	a, b    int32
}

// flowHeap orders flows by (vfinish, seq) for container/heap, through
// Fix only: Push and Pop would box a flow.
type flowHeap []flow

func (h flowHeap) Len() int { return len(h) }
func (h flowHeap) Less(i, j int) bool {
	if h[i].vfinish != h[j].vfinish {
		return h[i].vfinish < h[j].vfinish
	}
	return h[i].seq < h[j].seq
}
func (h flowHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *flowHeap) Push(any)     { panic("netsim: flowHeap.Push") }
func (h *flowHeap) Pop() any     { panic("netsim: flowHeap.Pop") }

// NewMedium creates a medium with aggregate capacity capacityBps
// (bytes/s) and optional per-flow cap (0 disables). Bandwidth is metered
// in 1-second buckets.
func NewMedium(eng *sim.Engine, capacityBps, perFlowCapBps float64) *Medium {
	if capacityBps <= 0 {
		panic("netsim: medium capacity must be positive")
	}
	m := &Medium{
		eng:        eng,
		capacity:   capacityBps,
		perFlowCap: perFlowCapBps,
		meter:      stats.NewMeter(1.0),
		lastUpdate: eng.Now(),
	}
	m.kind = eng.Handle(func(_, _ int32) {
		m.advance()
		m.reschedule()
	})
	return m
}

// SetCapacity rescales the medium (used by the scalability experiments,
// which "scale up the network links proportionately"). Active flows
// adopt the new rate immediately.
func (m *Medium) SetCapacity(capacityBps float64) {
	if capacityBps <= 0 {
		panic("netsim: medium capacity must be positive")
	}
	m.advance()
	m.capacity = capacityBps
	m.reschedule()
}

// Meter exposes the delivered-bytes meter (1 s buckets).
func (m *Medium) Meter() *stats.Meter { return m.meter }

// rate returns the current per-flow rate in bytes/s.
func (m *Medium) rate() float64 {
	n := len(m.flows)
	if n == 0 {
		return 0
	}
	r := m.capacity / float64(n)
	if m.perFlowCap > 0 && r > m.perFlowCap {
		r = m.perFlowCap
	}
	return r
}

// advance moves cumulative drain forward for the elapsed interval and
// completes every flow whose virtual finish has been reached.
func (m *Medium) advance() {
	now := m.eng.Now()
	dt := now - m.lastUpdate
	m.lastUpdate = now
	if dt > 0 && len(m.flows) > 0 {
		perFlow := m.rate() * dt
		m.drain += perFlow
		// Aggregate delivered bytes over the interval (all flows drain
		// at the same rate; flows that finish mid-interval deliver only
		// their remainder, which the pop below accounts for by clamping).
		m.meter.AddSpread(now-dt, now, perFlow*float64(len(m.flows)))
	}
	for len(m.flows) > 0 && m.flows[0].vfinish <= m.drain+completionSlackBytes {
		n := len(m.flows) - 1
		m.flows.Swap(0, n)
		f := m.flows[n]
		m.flows = m.flows[:n]
		heap.Fix(&m.flows, 0)
		// Clamp the meter: bytes past the flow's size were never real.
		if over := m.drain - f.vfinish; over > 0 {
			m.meter.Add(now, -math.Min(over, f.size))
		}
		m.eng.Fire(f.kind, f.a, f.b)
	}
}

// reschedule re-posts the completion record for the next flow.
func (m *Medium) reschedule() {
	m.next.Cancel()
	if len(m.flows) == 0 {
		return
	}
	// Aim slightly past the exact completion instant so floating-point
	// residue cannot leave a flow with an un-completable sliver.
	eta := (m.flows[0].vfinish - m.drain + completionSlackBytes/2) / m.rate()
	if eta < 0 {
		eta = 0
	}
	m.next = m.eng.PostIn(eta, m.kind, 0, 0)
}

// Transfer starts a flow of the given size and runs record (kind, a, b)
// inline when the last byte is delivered (kind 0: nothing). Zero-size
// transfers complete immediately.
func (m *Medium) Transfer(bytes float64, kind uint8, a, b int32) {
	if bytes <= 0 {
		m.eng.Fire(kind, a, b)
		return
	}
	m.advance()
	m.flows = append(m.flows, flow{vfinish: m.drain + bytes, size: bytes, seq: m.seq, kind: kind, a: a, b: b})
	heap.Fix(&m.flows, len(m.flows)-1)
	m.seq++
	m.reschedule()
}
