package synth

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hivemind/internal/dsl"
	"hivemind/internal/runtime"
	"hivemind/internal/trace"
)

// DeployFault names why Deploy refused a candidate.
type DeployFault int

const (
	NoImpl      DeployFault = iota // the task has no implementation
	ManyParents                    // the task joins more than one parent
	CloudFork                      // the task forks its cloud component, which must be a path
)

// DeployError is Deploy's refusal of a candidate it cannot wire.
type DeployError struct {
	Task  string
	Fault DeployFault
}

// Error implements error.
func (e *DeployError) Error() string {
	why := [...]string{"has no implementation", "has more than one parent",
		"forks its cloud component, which must be a path"}[e.Fault]
	return fmt.Sprintf("synth: cannot deploy task %q: it %s", e.Task, why)
}

// Deployment is a candidate wired onto the live stack: the cross-tier
// bindings HiveMind creates once, at initialization (§4.1). Cloud
// tasks joined by FaaS bindings form one durable gateway chain per
// cloud component, named after its head; each RPC binding into a
// component is a call of that chain from the edge half.
type Deployment struct {
	order  []*dsl.Task
	loc    map[string]Loc
	impls  map[string]runtime.Function
	chains map[string][]string // head → the component's tasks, head first
}

// Deploy wires candidate c of g with the task implementations impls.
// Every task needs an implementation and at most one parent, and every
// cloud component must be a path whose only exit is its tail, so the
// edge sees every cloud output it consumes.
func Deploy(g *dsl.TaskGraph, c Candidate, impls map[string]runtime.Function) (*Deployment, error) {
	d := &Deployment{order: g.TopoOrder(), loc: c.Assignment, impls: impls, chains: map[string][]string{}}
	head := map[string]string{}
	for _, t := range d.order {
		switch {
		case impls[t.Name] == nil:
			return nil, &DeployError{Task: t.Name, Fault: NoImpl}
		case len(t.Parents) > 1:
			return nil, &DeployError{Task: t.Name, Fault: ManyParents}
		case d.loc[t.Name] != LocCloud:
			continue
		}
		for _, ch := range t.Children {
			if len(t.Children) > 1 && d.loc[ch] == LocCloud {
				return nil, &DeployError{Task: t.Name, Fault: CloudFork}
			}
		}
		head[t.Name] = t.Name
		if len(t.Parents) == 1 && d.loc[t.Parents[0]] == LocCloud {
			head[t.Name] = head[t.Parents[0]]
		}
		d.chains[head[t.Name]] = append(d.chains[head[t.Name]], t.Name)
	}
	return d, nil
}

// Setup is the cloud half, for fleet.Config.Setup: it registers every
// cloud-placed task on a node's runtime and exposes each cloud
// component on its gateway.
func (d *Deployment) Setup(rt *runtime.Runtime, gw *runtime.Gateway) {
	for _, t := range d.order {
		if d.loc[t.Name] == LocCloud {
			rt.Register(t.Name, d.impls[t.Name])
		}
	}
	for h, path := range d.chains {
		gw.ExposeChain(h, path)
	}
}

// Run is the edge half: it runs one instance of the graph on input,
// the edge tasks in-process and each cloud component as one call (the
// shape of rpc.FailoverClient.Call) under task id id+"/"+head, so a
// retry after a failover resumes the same checkpoints. Each task gets
// its parent's output; Run returns every sink task's output.
func (d *Deployment) Run(ctx context.Context, call func(ctx context.Context, method string, payload []byte) ([]byte, error), id string, input []byte) (map[string][]byte, error) {
	out := make(map[string][]byte, len(d.order))
	sinks := map[string][]byte{}
	for _, t := range d.order {
		in := input
		if len(t.Parents) == 1 {
			in = out[t.Parents[0]]
		}
		var err error
		if path, ok := d.chains[t.Name]; ok {
			payload := runtime.EncodeTaskTraced(id+"/"+t.Name, trace.SpanContext{TraceID: id}, time.Now(), in)
			out[path[len(path)-1]], err = call(ctx, t.Name, payload)
		} else if d.loc[t.Name] == LocEdge {
			out[t.Name], err = d.impls[t.Name](ctx, in)
		}
		if err != nil {
			return nil, fmt.Errorf("synth: task %s of %s: %w", t.Name, id, err)
		}
		if len(t.Children) == 0 {
			sinks[t.Name] = out[t.Name]
		}
	}
	return sinks, nil
}

// String names the edge tasks and the cloud chains, in topological
// order.
func (d *Deployment) String() string {
	var edge, cloud []string
	for _, t := range d.order {
		if path, ok := d.chains[t.Name]; ok {
			cloud = append(cloud, strings.Join(path, "->"))
		} else if d.loc[t.Name] == LocEdge {
			edge = append(edge, t.Name)
		}
	}
	return fmt.Sprintf("edge %v, cloud chains %v", edge, cloud)
}
