package dsl

import "fmt"

// Builder assembles a TaskGraph programmatically — the fluent Go
// counterpart of the textual DSL, for applications that prefer code to
// configuration. Builder methods record errors and Build returns the
// first one, so call chains stay clean.
type Builder struct {
	graph *TaskGraph
	prog  *Program
	err   error
}

// NewGraph starts a builder for a named application.
func NewGraph(name string) *Builder {
	return &Builder{
		graph: &TaskGraph{Name: name, byName: make(map[string]*Task), Streams: map[string]Stream{}},
		prog:  &Program{},
	}
}

// Stream declares a continuous data source.
func (b *Builder) Stream(name string, rateHz, itemMB float64) *Builder {
	if b.err != nil {
		return b
	}
	if name == "" || rateHz <= 0 {
		return b.fail("dsl: stream %q requires a name and positive rate", name)
	}
	if _, dup := b.graph.Streams[name]; dup {
		return b.fail("dsl: stream %q declared twice", name)
	}
	b.graph.Streams[name] = Stream{Name: name, RateHz: rateHz, ItemMB: itemMB}
	return b
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b
}

// Constraints sets the application's performance/cost targets.
func (b *Builder) Constraints(c Constraints) *Builder {
	b.graph.Constraints = c
	return b
}

// TaskOption mutates a task at declaration.
type TaskOption func(*Task)

// WithParents declares the task's parents.
func WithParents(parents ...string) TaskOption {
	return func(t *Task) { t.Parents = append(t.Parents, parents...) }
}

// Colocatable marks the task as runnable in its parent's container.
func Colocatable() TaskOption {
	return func(t *Task) { t.Colocatable = true }
}

// Task declares a task.
func (b *Builder) Task(name string, opts ...TaskOption) *Builder {
	if b.err != nil {
		return b
	}
	if name == "" {
		return b.fail("dsl: task name empty")
	}
	if _, dup := b.graph.byName[name]; dup {
		return b.fail("dsl: task %q declared twice", name)
	}
	t := &Task{Name: name, Params: map[string]string{}}
	for _, o := range opts {
		o(t)
	}
	b.graph.byName[name] = t
	b.graph.Tasks = append(b.graph.Tasks, t)
	return b
}

func (b *Builder) task(name, op string) *Task {
	t, ok := b.graph.byName[name]
	if !ok {
		b.fail("dsl: %s references unknown task %q", op, name)
		return nil
	}
	return t
}

// Place pins a task to the edge or cloud; all=true replicates it on
// every device.
func (b *Builder) Place(name string, p Placement, all bool) *Builder {
	if t := b.task(name, "Place"); t != nil {
		t.Pin, t.PinAll = p, all
	}
	return b
}

// Learn enables model retraining for a task: "Global", "Self" or "Off".
func (b *Builder) Learn(name, mode string) *Builder {
	if mode != "Global" && mode != "Self" && mode != "Off" {
		return b.fail("dsl: Learn mode %q", mode)
	}
	if t := b.task(name, "Learn"); t != nil {
		t.Learn = mode
	}
	return b
}

// Persist stores a task's output durably.
func (b *Builder) Persist(name string) *Builder {
	if t := b.task(name, "Persist"); t != nil {
		t.Persist = true
	}
	return b
}

// Restore sets a task's fault-tolerance policy.
func (b *Builder) Restore(name, policy string) *Builder {
	if t := b.task(name, "Restore"); t != nil {
		t.Restore = policy
	}
	return b
}

// Priority sets a scheduling priority.
func (b *Builder) Priority(name string, prio int) *Builder {
	if t := b.task(name, "Schedule"); t != nil {
		t.Priority = prio
	}
	return b
}

// Build validates and returns the graph.
func (b *Builder) Build() (*TaskGraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := b.graph
	if len(g.Tasks) == 0 {
		return nil, fmt.Errorf("dsl: graph %q has no tasks", g.Name)
	}
	if err := linkEdges(g); err != nil {
		return nil, err
	}
	if err := validateRelations(g); err != nil {
		return nil, err
	}
	if err := checkAcyclic(g); err != nil {
		return nil, err
	}
	return g, nil
}
