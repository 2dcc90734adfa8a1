package dsl

import "fmt"

// Builder assembles a TaskGraph programmatically — the fluent Go
// counterpart of the textual DSL, for applications that prefer code to
// configuration. Builder methods record errors and Build returns the
// first one, so call chains stay clean.
type Builder struct {
	graph *TaskGraph
	err   error
}

// NewGraph starts a builder for a named application.
func NewGraph(name string) *Builder {
	return &Builder{
		graph: &TaskGraph{Name: name, byName: make(map[string]*Task), Streams: map[string]Stream{}},
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b
}

// TaskOption mutates a task at declaration.
type TaskOption func(*Task)

// WithParents declares the task's parents.
func WithParents(parents ...string) TaskOption {
	return func(t *Task) { t.Parents = append(t.Parents, parents...) }
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
	t := &Task{Name: name}
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

// Place pins a task to the edge or cloud. all mirrors the DSL's
// 'Edge:all' and changes nothing: every device runs an edge-pinned
// task.
func (b *Builder) Place(name string, p Placement, all bool) *Builder {
	if t := b.task(name, "Place"); t != nil {
		t.Pin = p
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
