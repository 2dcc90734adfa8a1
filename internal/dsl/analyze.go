package dsl

import (
	"fmt"
	"strconv"
	"strings"
)

// Analyze validates a parsed Program and produces the TaskGraph the
// synthesis stage consumes. It checks referential integrity, completes
// symmetric parent/child links, rejects cycles and contradictory
// relations, and interprets directives.
func Analyze(prog *Program) (*TaskGraph, error) {
	g := &TaskGraph{byName: make(map[string]*Task), Streams: map[string]Stream{}}
	var declared []string // names listed in TaskGraph(list=...)
	sawGraph := false

	for _, st := range prog.Statements {
		switch st.Op {
		case "TaskGraph":
			if sawGraph {
				return nil, fmt.Errorf("line %d: duplicate TaskGraph", st.Line)
			}
			sawGraph = true
			for _, a := range st.Args {
				switch a.Key {
				case "list":
					declared = a.Value.Strings()
				case "constraint", "constraints":
					if err := parseConstraints(a.Value, &g.Constraints); err != nil {
						return nil, fmt.Errorf("line %d: %w", st.Line, err)
					}
				case "name":
					g.Name = a.Value.Text()
				case "":
					return nil, fmt.Errorf("line %d: TaskGraph takes named arguments (list=, constraint=)", st.Line)
				default:
					return nil, fmt.Errorf("line %d: unknown TaskGraph argument %q", st.Line, a.Key)
				}
			}
		case "Task":
			t, err := parseTask(st)
			if err != nil {
				return nil, err
			}
			if _, dup := g.byName[t.Name]; dup {
				return nil, fmt.Errorf("line %d: task %q declared twice", st.Line, t.Name)
			}
			g.byName[t.Name] = t
			g.Tasks = append(g.Tasks, t)
		case "Stream":
			st2, err := parseStream(st)
			if err != nil {
				return nil, err
			}
			if _, dup := g.Streams[st2.Name]; dup {
				return nil, fmt.Errorf("line %d: stream %q declared twice", st.Line, st2.Name)
			}
			g.Streams[st2.Name] = st2
		case "Parallel", "Overlap", "Serial":
			if len(st.Args) != 2 {
				return nil, fmt.Errorf("line %d: %s takes two tasks", st.Line, st.Op)
			}
			kind := map[string]RelationKind{"Parallel": RelParallel, "Overlap": RelOverlap, "Serial": RelSerial}[st.Op]
			g.Relations = append(g.Relations, Relation{
				Kind: kind, A: st.Args[0].Value.Text(), B: st.Args[1].Value.Text(),
			})
		default:
			// Directive statements handled after tasks exist.
		}
	}
	if !sawGraph {
		return nil, fmt.Errorf("dsl: program has no TaskGraph declaration")
	}
	if len(g.Tasks) == 0 {
		return nil, fmt.Errorf("dsl: program declares no tasks")
	}

	// Every name in the TaskGraph list must be declared, and vice versa.
	declSet := map[string]bool{}
	for _, n := range declared {
		declSet[n] = true
		if _, ok := g.byName[n]; !ok {
			return nil, fmt.Errorf("dsl: TaskGraph lists %q but no Task(%s,...) is declared", n, n)
		}
	}
	if len(declared) > 0 {
		for _, t := range g.Tasks {
			if !declSet[t.Name] {
				return nil, fmt.Errorf("dsl: task %q is declared but missing from the TaskGraph list", t.Name)
			}
		}
	}

	if err := linkEdges(g); err != nil {
		return nil, err
	}
	if err := applyDirectives(g, prog); err != nil {
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

// ParseAndAnalyze is the one-call front door.
func ParseAndAnalyze(src string) (*TaskGraph, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog)
}

// parseStream handles Stream(name, rate='8Hz', item='2MB').
func parseStream(st Statement) (Stream, error) {
	out := Stream{}
	positional := 0
	for _, a := range st.Args {
		if a.Key == "" {
			if positional == 0 {
				out.Name = a.Value.Text()
			}
			positional++
			continue
		}
		switch a.Key {
		case "rate":
			v := strings.TrimSuffix(a.Value.Text(), "Hz")
			n, err := strconv.ParseFloat(v, 64)
			if err != nil || n <= 0 {
				return out, fmt.Errorf("line %d: bad stream rate %q", st.Line, a.Value.Text())
			}
			out.RateHz = n
		case "item":
			v := strings.TrimSuffix(a.Value.Text(), "MB")
			n, err := strconv.ParseFloat(v, 64)
			if err != nil || n <= 0 {
				return out, fmt.Errorf("line %d: bad stream item size %q", st.Line, a.Value.Text())
			}
			out.ItemMB = n
		default:
			return out, fmt.Errorf("line %d: unknown Stream argument %q", st.Line, a.Key)
		}
	}
	if out.Name == "" {
		return out, fmt.Errorf("line %d: Stream requires a name", st.Line)
	}
	if out.RateHz == 0 {
		return out, fmt.Errorf("line %d: Stream %q requires rate=", st.Line, out.Name)
	}
	return out, nil
}

func parseTask(st Statement) (*Task, error) {
	// Positional arguments are name, input, output and code path; of
	// the keyed ones only the edges are kept.
	t := &Task{}
	positional := 0
	for _, a := range st.Args {
		if a.Key == "" {
			switch positional {
			case 0:
				t.Name = a.Value.Text()
			case 1:
				if !a.Value.IsNone {
					t.DataIn = a.Value.Text()
				}
			case 2, 3:
			default:
				return nil, fmt.Errorf("line %d: too many positional Task arguments", st.Line)
			}
			positional++
			continue
		}
		switch a.Key {
		case "parentTask":
			if !a.Value.IsNone {
				t.Parents = a.Value.Strings()
			}
		case "childTask":
			if !a.Value.IsNone {
				t.Children = a.Value.Strings()
			}
		}
	}
	if t.Name == "" {
		return nil, fmt.Errorf("line %d: Task requires a name", st.Line)
	}
	return t, nil
}

// linkEdges verifies referential integrity and completes symmetric
// parent/child links.
func linkEdges(g *TaskGraph) error {
	for _, t := range g.Tasks {
		for _, p := range t.Parents {
			pt, ok := g.byName[p]
			if !ok {
				return fmt.Errorf("dsl: task %q references unknown parent %q", t.Name, p)
			}
			if !contains(pt.Children, t.Name) {
				pt.Children = append(pt.Children, t.Name)
			}
		}
		for _, c := range t.Children {
			ct, ok := g.byName[c]
			if !ok {
				return fmt.Errorf("dsl: task %q references unknown child %q", t.Name, c)
			}
			if !contains(ct.Parents, t.Name) {
				ct.Parents = append(ct.Parents, t.Name)
			}
		}
		if contains(t.Parents, t.Name) || contains(t.Children, t.Name) {
			return fmt.Errorf("dsl: task %q references itself", t.Name)
		}
	}
	return nil
}

func applyDirectives(g *TaskGraph, prog *Program) error {
	taskArg := func(st Statement) (*Task, error) {
		if len(st.Args) < 1 {
			return nil, fmt.Errorf("line %d: %s requires a task", st.Line, st.Op)
		}
		name := st.Args[0].Value.Text()
		t, ok := g.byName[name]
		if !ok {
			return nil, fmt.Errorf("line %d: %s references unknown task %q", st.Line, st.Op, name)
		}
		return t, nil
	}
	for _, st := range prog.Statements {
		switch st.Op {
		case "Place":
			t, err := taskArg(st)
			if err != nil {
				return err
			}
			if len(st.Args) < 2 {
				return fmt.Errorf("line %d: Place requires a location", st.Line)
			}
			// An ':all' suffix changes nothing: every device runs an
			// edge-pinned task.
			loc := st.Args[1].Value.Text()
			base, _, _ := strings.Cut(loc, ":")
			switch strings.ToLower(base) {
			case "edge":
				t.Pin = PlaceEdge
			case "cloud":
				t.Pin = PlaceCloud
			default:
				return fmt.Errorf("line %d: Place location %q must be Edge or Cloud (optionally ':all')", st.Line, loc)
			}
		case "Learn":
			if _, err := taskArg(st); err != nil {
				return err
			}
			if len(st.Args) >= 2 {
				switch mode := st.Args[1].Value.Text(); mode {
				case "Global", "Self", "Off":
				default:
					return fmt.Errorf("line %d: Learn mode %q must be Global, Self or Off", st.Line, mode)
				}
			}
		case "Synchronize":
			if _, err := taskArg(st); err != nil {
				return err
			}
			if len(st.Args) >= 2 {
				if cond := st.Args[1].Value.Text(); cond != "all" && cond != "any" {
					return fmt.Errorf("line %d: Synchronize condition %q must be all or any", st.Line, cond)
				}
			}
		case "Persist", "Isolate", "Restore", "Schedule":
			if _, err := taskArg(st); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateRelations(g *TaskGraph) error {
	seen := map[[2]string]RelationKind{}
	for _, r := range g.Relations {
		if _, ok := g.byName[r.A]; !ok {
			return fmt.Errorf("dsl: %s relation references unknown task %q", r.Kind, r.A)
		}
		if _, ok := g.byName[r.B]; !ok {
			return fmt.Errorf("dsl: %s relation references unknown task %q", r.Kind, r.B)
		}
		if r.A == r.B {
			return fmt.Errorf("dsl: %s relation on task %q with itself", r.Kind, r.A)
		}
		key := [2]string{r.A, r.B}
		if r.B < r.A {
			key = [2]string{r.B, r.A}
		}
		if prev, dup := seen[key]; dup && prev != r.Kind {
			return fmt.Errorf("dsl: tasks %q and %q have contradictory relations %s and %s",
				r.A, r.B, prev, r.Kind)
		}
		seen[key] = r.Kind
	}
	return nil
}

func checkAcyclic(g *TaskGraph) error {
	if ordered := g.TopoOrder(); len(ordered) != len(g.Tasks) {
		inOrder := map[string]bool{}
		for _, t := range ordered {
			inOrder[t.Name] = true
		}
		var cyclic []string
		for _, t := range g.Tasks {
			if !inOrder[t.Name] {
				cyclic = append(cyclic, t.Name)
			}
		}
		return fmt.Errorf("dsl: task graph has a cycle involving %s", strings.Join(cyclic, ", "))
	}
	return nil
}

func parseConstraints(v Value, c *Constraints) error {
	for _, item := range v.Strings() {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("constraint %q must be key=value", item)
		}
		switch key {
		case "execTime":
			d, err := parseDuration(val)
			if err != nil {
				return err
			}
			c.ExecTimeS = d
		case "latency":
			d, err := parseDuration(val)
			if err != nil {
				return err
			}
			c.LatencyS = d
		case "throughput":
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("bad throughput %q", val)
			}
		case "cost":
			n, err := strconv.ParseFloat(strings.TrimPrefix(val, "$"), 64)
			if err != nil {
				return fmt.Errorf("bad cost %q", val)
			}
			c.MaxCostUSD = n
		case "power":
			n, err := strconv.ParseFloat(strings.TrimSuffix(val, "W"), 64)
			if err != nil {
				return fmt.Errorf("bad power %q", val)
			}
			c.MaxPowerW = n
		default:
			return fmt.Errorf("unknown constraint %q", key)
		}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
