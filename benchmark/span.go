package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from this package only, around the calls into
// each layer, through seams that are already public. The nesting is
// fixed by the stack's wiring:
//
//	client → ingress → rpc.link → runtime.gateway → runtime.fn
//	                                              → controller.track
//
// (fleet-chain-wal has no ingress: the client calls rpc.link.)
type layer uint8

const (
	layerClient layer = iota
	layerIngress
	layerLink
	layerGateway
	layerFn
	layerTrack
	numLayers
)

var layerNames = [numLayers]string{"client", "ingress", "rpc.link", "runtime.gateway", "runtime.fn", "controller.track"}

// layerParent is the static nesting; the root is its own parent.
var layerParent = [numLayers]layer{layerClient, layerClient, layerIngress, layerLink, layerGateway, layerGateway}

// under reports whether layer l sits strictly below layer p.
func (l layer) under(p layer) bool {
	for l != layerParent[l] {
		l = layerParent[l]
		if l == p {
			return true
		}
	}
	return false
}

// span is one timed call into a layer on behalf of one op. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	layer      layer
	op         uint64
	start, end int64
}

// sampleEvery is the share of ops whose spans are kept (one in ten).
const sampleEvery = 10

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays for no wrapper at all.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	shards [16]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep shards on separate cache lines
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sampled reports whether op's spans are recorded right now.
func (t *tracer) sampled(op uint64) bool {
	return t != nil && op&noTrace == 0 && op%sampleEvery == 0 && t.on.Load()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

var noSpan = func() {}

// begin opens a span of layer l for op and returns the call that ends
// it; for an op that is not sampled both do nothing. Usage:
//
//	defer tr.begin(layerFn, op)()
func (t *tracer) begin(l layer, op uint64) (end func()) {
	if !t.sampled(op) {
		return noSpan
	}
	start := t.now()
	return func() {
		sp := span{layer: l, op: op, start: start, end: t.now()}
		s := &t.shards[(op/sampleEvery)%uint64(len(t.shards))]
		s.mu.Lock()
		s.spans = append(s.spans, sp)
		s.mu.Unlock()
	}
}

// all returns every recorded span, grouped by op.
func (t *tracer) all() map[uint64][]span {
	byOp := map[uint64][]span{}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, sp := range s.spans {
			byOp[sp.op] = append(byOp[sp.op], sp)
		}
		s.mu.Unlock()
	}
	return byOp
}

type interval struct{ start, end int64 }

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns, for one op's spans, each layer's self time: the
// duration of its spans minus the part of them that spans of any layer
// below cover. Overlapping children are counted once (a union, not a
// sum), and a child running outside its parent (the async dispatch
// that outlives the POST which started it) is charged to the nearest
// ancestor that does cover that moment. Every instant of the root span
// is therefore charged to exactly one layer: the deepest one active.
func selfTimes(spans []span) (self [numLayers]int64) {
	for _, sp := range spans {
		var below []interval
		for _, c := range spans {
			if c.layer.under(sp.layer) {
				below = append(below, interval{c.start, c.end})
			}
		}
		self[sp.layer] += (sp.end - sp.start) - covered(below, sp.start, sp.end)
	}
	return self
}

// traceSummary is what the traced run reports from its spans.
type traceSummary struct {
	ops       int                // sampled ops with a root span
	selfUS    [numLayers]float64 // median self time per op, per layer
	rootP50   float64            // median root-span duration, µs
	pathShare float64            // sum of the self medians ÷ rootP50
}

func summarizeSpans(byOp map[uint64][]span) traceSummary {
	var per [numLayers][]float64
	var roots []float64
	for _, spans := range byOp {
		var root int64
		for _, sp := range spans {
			if sp.layer == layerClient {
				root += sp.end - sp.start
			}
		}
		if root == 0 {
			continue // a server-side span of an op whose client span was not kept
		}
		self := selfTimes(spans)
		for l := range per {
			per[l] = append(per[l], float64(self[l])/1e3)
		}
		roots = append(roots, float64(root)/1e3)
	}
	var s traceSummary
	s.ops = len(roots)
	s.rootP50 = median(roots)
	var sum float64
	for l := range per {
		s.selfUS[l] = median(per[l])
		sum += s.selfUS[l]
	}
	if s.rootP50 > 0 {
		s.pathShare = sum / s.rootP50
	}
	return s
}

// maxFileSpans bounds the span file; metrics use every span kept.
const maxFileSpans = 50000

// writeSpans writes the spans as JSON: {name, op, start, end, parent},
// times in nanoseconds since the start of the traced run.
func writeSpans(path string, byOp map[uint64][]span) error {
	type rec struct {
		Name   string `json:"name"`
		Op     uint64 `json:"op"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent string `json:"parent"`
	}
	ops := make([]uint64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var out []rec
	for _, op := range ops {
		for _, sp := range byOp[op] {
			parent := ""
			if p := layerParent[sp.layer]; p != sp.layer {
				parent = layerNames[p]
			}
			out = append(out, rec{layerNames[sp.layer], op, sp.start, sp.end, parent})
		}
		if len(out) >= maxFileSpans {
			break
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
