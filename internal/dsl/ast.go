// Package dsl implements the HiveMind domain-specific language of §4.1:
// a declarative description of an application's task graph (Listing 1),
// optional management directives (Listing 2), and the scenario programs
// written in it (Listing 3). The paper embeds the DSL in Python; this
// implementation provides an equivalent standalone grammar — the same
// operations with the same semantics — parsed from text, plus a fluent
// Go builder that produces identical programs.
//
// Pipeline: Parse (lexer+parser) → Program (AST) → Validate →
// TaskGraph (analyzed, topologically ordered) → synth.Explore.
package dsl

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Program is a parsed DSL source: an ordered list of statements.
type Program struct {
	Statements []Statement
}

// Statement is one top-level call, e.g. Task(...), Parallel(a,b).
type Statement struct {
	Op   string
	Args []Arg
	Line int
}

// Arg is a positional or named (key=value) argument.
type Arg struct {
	Key   string // empty for positional
	Value Value
}

// ValueKind discriminates argument values.
type ValueKind int

const (
	ValString ValueKind = iota
	ValIdent
	ValNumber
	ValList
	ValNone
)

// Value is a literal: string, identifier, number, list, or None.
type Value struct {
	Kind   ValueKind
	Str    string  // ValString, ValIdent, and ValNumber's literal
	List   []Value // ValList
	IsNone bool
}

// Text returns the string content of a string/ident value.
func (v Value) Text() string { return v.Str }

// Strings flattens a list (or single string/ident) into string items.
func (v Value) Strings() []string {
	switch v.Kind {
	case ValList:
		out := make([]string, 0, len(v.List))
		for _, item := range v.List {
			out = append(out, item.Str)
		}
		return out
	case ValString, ValIdent:
		return []string{v.Str}
	default:
		return nil
	}
}

// Placement is where a task may run.
type Placement int

// The zero Placement leaves the task free to run anywhere.
const (
	PlaceEdge Placement = iota + 1
	PlaceCloud
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceEdge:
		return "edge"
	case PlaceCloud:
		return "cloud"
	default:
		return "any"
	}
}

// Task is one computation tier of the application. It keeps what
// synthesis reads: the task's input, its edges and its placement pin.
// The other Task arguments and the Isolate, Persist, Learn, Restore,
// Schedule and Synchronize directives are parsed and checked, but
// nothing downstream models them, so they are not stored.
type Task struct {
	Name     string
	DataIn   string
	Parents  []string
	Children []string

	Pin Placement // Place(task, 'Edge'/'Cloud'); zero = free
}

// Constraints are the user's performance/cost targets (§4.1: execution
// time, latency, throughput, and a cloud-cost ceiling).
type Constraints struct {
	ExecTimeS  float64
	LatencyS   float64
	MaxCostUSD float64
	MaxPowerW  float64
}

// Relation kinds between task pairs (Listing 1).
type RelationKind int

const (
	RelParallel RelationKind = iota // may run concurrently
	RelOverlap                      // may partially overlap
	RelSerial                       // must not overlap
)

// String implements fmt.Stringer.
func (r RelationKind) String() string {
	switch r {
	case RelParallel:
		return "parallel"
	case RelOverlap:
		return "overlap"
	default:
		return "serial"
	}
}

// Relation constrains a pair of tasks.
type Relation struct {
	Kind RelationKind
	A, B string
}

// Stream declares a continuous data source (§4.1 supports both
// individual objects and data streams): a named flow of items at a
// fixed rate, e.g. a camera producing 8 frames/s of 2 MB each. Tasks
// whose DataIn names a stream are driven at its rate.
type Stream struct {
	Name   string
	RateHz float64
	ItemMB float64
}

// TaskGraph is the analyzed application: validated tasks in declaration
// order, edges, relations and constraints.
type TaskGraph struct {
	Name        string
	Tasks       []*Task
	byName      map[string]*Task
	Relations   []Relation
	Constraints Constraints
	Streams     map[string]Stream
}

// StreamFor returns the stream feeding a task's DataIn, if declared.
func (g *TaskGraph) StreamFor(t *Task) (Stream, bool) {
	st, ok := g.Streams[t.DataIn]
	return st, ok
}

// TopoOrder returns tasks in a topological order (parents first). The
// graph is guaranteed acyclic after Validate.
func (g *TaskGraph) TopoOrder() []*Task {
	indeg := make(map[string]int, len(g.Tasks))
	for _, t := range g.Tasks {
		indeg[t.Name] = len(t.Parents)
	}
	var queue []*Task
	for _, t := range g.Tasks { // declaration order keeps ties stable
		if indeg[t.Name] == 0 {
			queue = append(queue, t)
		}
	}
	var out []*Task
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		out = append(out, t)
		for _, c := range t.Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, g.byName[c])
			}
		}
	}
	return out
}

// String renders a compact description.
func (g *TaskGraph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "taskgraph %s: ", g.Name)
	for i, t := range g.Tasks {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name)
		if len(t.Children) > 0 {
			fmt.Fprintf(&sb, "->%s", strings.Join(t.Children, "/"))
		}
	}
	return sb.String()
}

// parseDuration accepts "10s", "1.5m", "250ms", or a bare number of
// seconds.
func parseDuration(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	return d.Seconds(), nil
}
