// Package trace records structured spans from simulation runs and
// exports them in the Chrome trace-event format (chrome://tracing /
// Perfetto), giving the same visibility the paper's monitoring system
// provides over application progress (§4.7): per-task pipelines broken
// into network / management / data-IO / execution phases, per device
// and per backend server.
//
// Spans use virtual simulation time expressed in microseconds, so a
// trace of a 120-second run opens directly in any trace viewer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Span is one timed operation.
type Span struct {
	Name     string            // e.g. "S1 task", "upload", "exec"
	Category string            // e.g. "network", "management"
	Track    string            // lane: "drone-3", "server-7", "controller"
	StartS   float64           // virtual time, seconds
	EndS     float64           // virtual time, seconds
	Args     map[string]string // extra key/values shown in the viewer
}

// Valid reports whether the span is well-formed.
func (s Span) Valid() bool {
	return s.Name != "" && s.Track != "" && s.EndS >= s.StartS
}

// Instant is a zero-duration marker (device failure, repartition, ...).
type Instant struct {
	Name   string
	Track  string
	AtS    float64
	Args   map[string]string
	Global bool // render across all tracks
}

// Recorder collects spans. Safe for concurrent use (the real runtime
// traces from goroutines; the simulator from one).
type Recorder struct {
	mu              sync.Mutex
	spans           []Span
	instants        []Instant
	dropped         int
	droppedInstants int
	limit           int
}

// NewRecorder returns a recorder. limit bounds retained spans
// and instants independently (0 = 1<<20); beyond it entries are counted
// as dropped rather than growing without bound.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// Add records a span.
func (r *Recorder) Add(s Span) {
	if !s.Valid() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Mark records an instant event. Instants honour the same retention
// limit as spans: a long live run emitting failure/repartition markers
// must not grow the recorder without bound.
func (r *Recorder) Mark(i Instant) {
	if i.Name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.instants) >= r.limit {
		r.droppedInstants++
		return
	}
	r.instants = append(r.instants, i)
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of retained spans, ordered by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartS < out[j].StartS })
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TsUS  float64           `json:"ts"`
	DurUS float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace serialises the recording as a Chrome trace-event
// JSON array. Tracks map to thread lanes in a single process, sorted
// by name for stable output.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	r.mu.Lock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	instants := make([]Instant, len(r.instants))
	copy(instants, r.instants)
	dropped, droppedInstants := r.dropped, r.droppedInstants
	r.mu.Unlock()

	trackIDs := map[string]int{}
	trackID := func(name string) int {
		if id, ok := trackIDs[name]; ok {
			return id
		}
		id := len(trackIDs) + 1
		trackIDs[name] = id
		return id
	}
	// Pre-assign lanes in sorted track order for stable ids.
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Track] = true
	}
	for _, i := range instants {
		if i.Track != "" {
			names[i.Track] = true
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		trackID(n)
	}

	events := make([]chromeEvent, 0, len(spans)+len(instants)+len(sorted))
	for _, n := range sorted {
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: trackIDs[n],
			Args: map[string]string{"name": n},
		})
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Category, Phase: "X",
			TsUS: s.StartS * 1e6, DurUS: (s.EndS - s.StartS) * 1e6,
			PID: 1, TID: trackIDs[s.Track], Args: s.Args,
		})
	}
	for _, i := range instants {
		ev := chromeEvent{
			Name: i.Name, Phase: "i", TsUS: i.AtS * 1e6, PID: 1,
			Scope: "t", Args: i.Args,
		}
		if i.Global {
			ev.Scope = "g"
		}
		if i.Track != "" {
			ev.TID = trackIDs[i.Track]
		} else {
			ev.TID = 0
		}
		events = append(events, ev)
	}
	// Account for retention-limit drops in-band, so a truncated trace is
	// distinguishable from a complete one. Emitted only when something
	// was actually dropped: complete traces keep their exact shape.
	if dropped > 0 || droppedInstants > 0 {
		var last float64
		for _, s := range spans {
			if us := s.EndS * 1e6; us > last {
				last = us
			}
		}
		for _, i := range instants {
			if us := i.AtS * 1e6; us > last {
				last = us
			}
		}
		events = append(events, chromeEvent{
			Name: "trace truncated", Phase: "i", TsUS: last, PID: 1, TID: 0, Scope: "g",
			Args: map[string]string{
				"dropped_spans":    strconv.Itoa(dropped),
				"dropped_instants": strconv.Itoa(droppedInstants),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Summary renders per-category totals, a quick textual profile.
func (r *Recorder) Summary() string {
	totals := map[string]float64{}
	counts := map[string]int{}
	for _, s := range r.Spans() {
		key := s.Category
		if key == "" {
			key = s.Name
		}
		totals[key] += s.EndS - s.StartS
		counts[key]++
	}
	var keys []string
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%-14s %6d spans %10.3fs total\n", k, counts[k], totals[k])
	}
	return out
}
