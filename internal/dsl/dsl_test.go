package dsl

import (
	"strings"
	"testing"
)

// listing3 is the paper's example application (People Recognition and
// Deduplication, Listing 3), lightly normalised.
const listing3 = `
# Scenario B: count unique people in a field.
TaskGraph(list=['createRoute','collectImage','obstacleAvoidance',
                'faceRecognition','deduplication'],
          constraint=[execTime='10s'])

Task(createRoute, inputMap, outputRoute, 'tasks/create_route',
     load_balancer='round robin',
     parentTask=None, childTask=['collectImage'])

Task(collectImage, None, sensorData, 'tasks/collect_image',
     speed='4', resolution='1024p', colorFormat='color',
     parentTask=['createRoute'],
     childTask=['obstacleAvoidance','faceRecognition'])

Task(obstacleAvoidance, sensorData, adjustRoute, 'tasks/obstacle_avoid',
     algorithm='slam', parentTask=['collectImage'], childTask=[])

Task(faceRecognition, sensorData, recognitionStats, 'tasks/face_rec',
     trainingData='zoo', algorithm='tensorflow_zoo',
     parentTask=['collectImage'], childTask=['deduplication'])

Task(deduplication, recognitionStats, dedupList, 'tasks/dedup',
     sync='all', parentTask=['faceRecognition'], childTask=[])

Parallel(obstacleAvoidance, faceRecognition)
Serial(faceRecognition, deduplication)
Learn(faceRecognition, 'Global')
Place(obstacleAvoidance, 'Edge:all')
Persist(faceRecognition)
Persist(deduplication)
`

func TestParseListing3(t *testing.T) {
	g, err := ParseAndAnalyze(listing3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 5 {
		t.Fatalf("tasks = %d", len(g.Tasks))
	}
	if g.Constraints.ExecTimeS != 10 {
		t.Fatalf("execTime = %g", g.Constraints.ExecTimeS)
	}
	face, ok := g.byName["faceRecognition"]
	if !ok {
		t.Fatal("faceRecognition missing")
	}
	if face.DataIn != "sensorData" || face.Pin != 0 {
		t.Fatalf("faceRecognition = %+v", face)
	}
	// Every Listing-3 directive parses; Place is the one synthesis reads.
	ops := map[string]bool{}
	prog, err := Parse(listing3)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range prog.Statements {
		ops[st.Op] = true
	}
	for _, op := range []string{"Parallel", "Serial", "Learn", "Place", "Persist"} {
		if !ops[op] {
			t.Errorf("directive %s not parsed", op)
		}
	}
	oa := g.byName["obstacleAvoidance"]
	if oa.Pin != PlaceEdge {
		t.Fatalf("obstacle avoidance pin = %v", oa.Pin)
	}
	dedup := g.byName["deduplication"]
	if len(dedup.Parents) != 1 || dedup.Parents[0] != "faceRecognition" {
		t.Fatalf("dedup parents = %v", dedup.Parents)
	}
	// Relations recorded.
	if k, ok := relationBetween(g, "obstacleAvoidance", "faceRecognition"); !ok || k != RelParallel {
		t.Fatal("parallel relation missing")
	}
	if k, ok := relationBetween(g, "deduplication", "faceRecognition"); !ok || k != RelSerial {
		t.Fatal("serial relation missing")
	}
	if _, ok := relationBetween(g, "createRoute", "deduplication"); ok {
		t.Fatal("phantom relation")
	}
}

// relationBetween returns the declared relation for a pair, if any.
func relationBetween(g *TaskGraph, a, b string) (RelationKind, bool) {
	for _, r := range g.Relations {
		if (r.A == a && r.B == b) || (r.A == b && r.B == a) {
			return r.Kind, true
		}
	}
	return 0, false
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g, err := ParseAndAnalyze(listing3)
	if err != nil {
		t.Fatal(err)
	}
	order := g.TopoOrder()
	if len(order) != 5 {
		t.Fatalf("topo length = %d", len(order))
	}
	pos := map[string]int{}
	for i, task := range order {
		pos[task.Name] = i
	}
	for _, task := range g.Tasks {
		for _, c := range task.Children {
			if pos[c] <= pos[task.Name] {
				t.Fatalf("child %s before parent %s", c, task.Name)
			}
		}
	}
	if order[0].Name != "createRoute" || len(order[0].Parents) != 0 || len(order[1].Parents) == 0 {
		t.Fatalf("createRoute is not the only root: order %v", namesOf(order))
	}
}

func TestSymmetricLinkCompletion(t *testing.T) {
	src := `
TaskGraph(list=['a','b'])
Task(a, None, out, 'x', childTask=['b'])
Task(b, out, None, 'y')
`
	g, err := ParseAndAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	b := g.byName["b"]
	if len(b.Parents) != 1 || b.Parents[0] != "a" {
		t.Fatalf("parent link not completed: %v", b.Parents)
	}
}

// errorCases are sources the front end must reject, each with a
// fragment its error names; they also seed FuzzParseAndAnalyze.
var errorCases = []struct {
	name, src, want string
}{
	{"empty", "", "empty program"},
	{"unknownOp", "Frobnicate(a)", "unknown operation"},
	{"noGraph", "Task(a, None, None, 'x')", "no TaskGraph"},
	{"noTasks", "TaskGraph(list=[])", "no tasks"},
	{"unlisted", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nTask(b, None, None, 'y')", "missing from the TaskGraph list"},
	{"undeclared", "TaskGraph(list=['a','ghost'])\nTask(a, None, None, 'x')", "no Task(ghost"},
	{"badParent", "TaskGraph(list=['a'])\nTask(a, None, None, 'x', parentTask=['ghost'])", "unknown parent"},
	{"selfRef", "TaskGraph(list=['a'])\nTask(a, None, None, 'x', childTask=['a'])", "references itself"},
	{"cycle", "TaskGraph(list=['a','b'])\nTask(a, None, None, 'x', childTask=['b'])\nTask(b, None, None, 'y', childTask=['a'])", "cycle"},
	{"dupTask", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nTask(a, None, None, 'x')", "declared twice"},
	{"contradictoryRel", "TaskGraph(list=['a','b'])\nTask(a, None, None, 'x')\nTask(b, None, None, 'y')\nParallel(a,b)\nSerial(a,b)", "contradictory"},
	{"relUnknown", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nParallel(a, ghost)", "unknown task"},
	{"relSelf", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nParallel(a, a)", "itself"},
	{"badPlace", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nPlace(a, 'Mars')", "must be Edge or Cloud"},
	{"badLearn", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nLearn(a, 'Sometimes')", "must be Global, Self or Off"},
	{"badSync", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nSynchronize(a, 'most')", "must be all or any"},
	{"badConstraint", "TaskGraph(list=['a'], constraint=[warp='9'])\nTask(a, None, None, 'x')", "unknown constraint"},
	{"badDuration", "TaskGraph(list=['a'], constraint=[execTime='fast'])\nTask(a, None, None, 'x')", "duration"},
	{"directiveUnknownTask", "TaskGraph(list=['a'])\nTask(a, None, None, 'x')\nPersist(ghost)", "unknown task"},
	{"unterminated", "TaskGraph(list=['a\n", "unterminated"},
	{"doubleGraph", "TaskGraph(list=['a'])\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')", "duplicate TaskGraph"},
}

func TestErrors(t *testing.T) {
	for _, tc := range errorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseAndAnalyze(tc.src)
			if err == nil {
				t.Fatalf("no error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestConstraintParsing(t *testing.T) {
	src := `
TaskGraph(list=['a'], constraint=[execTime='90s', latency='250ms',
          throughput='40', cost='$3.50', power='25W'])
Task(a, None, None, 'x')
`
	g, err := ParseAndAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Constraints
	if c.ExecTimeS != 90 || c.LatencyS != 0.25 || c.MaxCostUSD != 3.5 || c.MaxPowerW != 25 {
		t.Fatalf("constraints = %+v", c)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "# leading comment\nTaskGraph(list=['a'])  # trailing\n\n\nTask(a, None, None, 'x',)\n"
	if _, err := ParseAndAnalyze(src); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderEquivalentToText(t *testing.T) {
	g, err := NewGraph("scenarioB").
		Task("createRoute").
		Task("collectImage", WithParents("createRoute")).
		Task("obstacleAvoidance", WithParents("collectImage")).
		Task("faceRecognition", WithParents("collectImage")).
		Task("deduplication", WithParents("faceRecognition")).
		Place("obstacleAvoidance", PlaceEdge, true).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ParseAndAnalyze(listing3)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(namesOf(g.TopoOrder()), ",") != strings.Join(namesOf(ref.TopoOrder()), ",") {
		t.Fatalf("builder topo %v != text topo %v", namesOf(g.TopoOrder()), namesOf(ref.TopoOrder()))
	}
}

func namesOf(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewGraph("g").Build(); err == nil {
		t.Fatal("empty graph built")
	}
	if _, err := NewGraph("g").Task("a").Task("a").Build(); err == nil {
		t.Fatal("duplicate task built")
	}
	if _, err := NewGraph("g").Task("a").Place("ghost", PlaceEdge, false).Build(); err == nil {
		t.Fatal("directive on unknown task built")
	}
	if _, err := NewGraph("g").Task("a", WithParents("a")).Build(); err == nil {
		t.Fatal("self-parent built")
	}
}

func TestGraphString(t *testing.T) {
	g, _ := ParseAndAnalyze(listing3)
	s := g.String()
	if !strings.Contains(s, "createRoute") || !strings.Contains(s, "->") {
		t.Fatalf("graph string = %q", s)
	}
	if PlaceEdge.String() != "edge" || PlaceCloud.String() != "cloud" || Placement(0).String() != "any" {
		t.Fatal("placement strings")
	}
}

func TestValueHelpers(t *testing.T) {
	v := Value{Kind: ValList, List: []Value{{Kind: ValString, Str: "a"}, {Kind: ValString, Str: "b"}}}
	got := v.Strings()
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("strings = %v", got)
	}
	single := Value{Kind: ValIdent, Str: "x"}
	if s := single.Strings(); len(s) != 1 || s[0] != "x" {
		t.Fatalf("single = %v", s)
	}
	if (Value{Kind: ValNumber}).Strings() != nil {
		t.Fatal("number should flatten to nil")
	}
}

func TestNumericAndNamedTaskParams(t *testing.T) {
	src := `
TaskGraph(list=['a'])
Task(a, None, None, 'x', speed=4, resolution='1024p')
Schedule(a, priority=7)
Isolate(a)
Restore(a, 'checkpoint')
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	// The numeric and string arguments and the directives reach the
	// analyzer with their values.
	task := prog.Statements[1].Args
	if task[4].Key != "speed" || task[4].Value.Kind != ValNumber || task[4].Value.Text() != "4" ||
		task[5].Key != "resolution" || task[5].Value.Text() != "1024p" {
		t.Fatalf("task args = %+v", task)
	}
	var ops []string
	for _, st := range prog.Statements[2:] {
		ops = append(ops, st.Op)
	}
	if strings.Join(ops, ",") != "Schedule,Isolate,Restore" {
		t.Fatalf("directives = %v", ops)
	}
	if prio := prog.Statements[2].Args[1]; prio.Key != "priority" || prio.Value.Text() != "7" {
		t.Fatalf("priority = %+v", prio)
	}
}

func TestLexerEdgeCases(t *testing.T) {
	// Escapes inside strings.
	toks, err := lexAll(`'path\twith\nescapes\\and\'quote'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].kind != tokString || toks[0].text != "path\twith\nescapes\\and'quote" {
		t.Fatalf("escapes lost: %v", toks)
	}
	// Bad escape rejected.
	if _, err := ParseAndAnalyze("TaskGraph(list=['a'])\nTask(a, None, None, 'bad\\q')"); err == nil {
		t.Fatal("bad escape accepted")
	}
	// Negative and scientific numbers.
	src2 := "TaskGraph(list=['a'])\nTask(a, None, None, 'x', bias=-2.5, scale=1e3)\nSchedule(a, priority=-3)\n"
	prog2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog2); err != nil {
		t.Fatal(err)
	}
	if args := prog2.Statements[1].Args; args[4].Value.Text() != "-2.5" || args[5].Value.Text() != "1e3" {
		t.Fatalf("numeric args = %+v", args)
	}
	if prio := prog2.Statements[2].Args[1]; prio.Value.Text() != "-3" {
		t.Fatalf("priority = %+v", prio)
	}
	// Double-quoted strings work too.
	if _, err := ParseAndAnalyze("TaskGraph(list=[\"a\"])\nTask(a, None, None, \"x\")"); err != nil {
		t.Fatal(err)
	}
	// Unexpected character.
	if _, err := ParseAndAnalyze("TaskGraph(list=['a']) @"); err == nil {
		t.Fatal("stray character accepted")
	}
}

func TestParserTrailingAndNested(t *testing.T) {
	// Empty argument list and nested lists of idents.
	src := `
TaskGraph(list=['a','b'], constraint=[])
Task(a, None, None, 'x', childTask=['b',])
Task(b, None, None, 'y')
Isolate(a)
`
	g, err := ParseAndAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	a := g.byName["a"]
	if len(a.Children) != 1 || a.Children[0] != "b" {
		t.Fatalf("children = %v", a.Children)
	}
}

func TestBuilderRemainingDirectives(t *testing.T) {
	g, err := NewGraph("g").
		Task("a").
		Task("b", WithParents("a")).
		Place("b", PlaceCloud, false).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if b := g.byName["b"]; b.Pin != PlaceCloud {
		t.Fatalf("b = %+v", b)
	}
	if len(g.Tasks) != 2 || g.Tasks[0].Name != "a" {
		t.Fatalf("tasks = %v", g.Tasks)
	}
}

func TestParserSyntaxErrors(t *testing.T) {
	bad := []string{
		"TaskGraph list=['a'])",     // missing '('
		"TaskGraph(list=['a'] Task", // missing ')' or ','
		"TaskGraph(list=['a' 'b'])", // missing ',' in list
		"TaskGraph(list=)",          // missing value
		"Task(,)",                   // empty value
		"123(x)",                    // op must be ident
		"TaskGraph(list=['a'])\nTask(a,b,c,d,e,f)", // too many positionals
		"TaskGraph(list=['a'])\nParallel(a)",       // arity
		"TaskGraph(list=['a'])\nPlace(a)",          // missing location
		"TaskGraph(name=7)",                        // wrong type tolerated? name=Text() of number -> empty; fine
	}
	for i, src := range bad[:9] {
		if _, err := ParseAndAnalyze(src); err == nil {
			t.Fatalf("case %d accepted: %q", i, src)
		}
	}
}

func TestParseDurationForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{{"10s", 10}, {"1.5m", 90}, {"250ms", 0.25}, {"42", 42}} {
		got, err := parseDuration(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("parseDuration(%q) = %g, %v", tc.in, got, err)
		}
	}
	for _, bad := range []string{"", "fast", "10 parsecs"} {
		if _, err := parseDuration(bad); err == nil {
			t.Fatalf("parseDuration(%q) accepted", bad)
		}
	}
}

func TestTokenStrings(t *testing.T) {
	toks, err := lexAll("Task('s', 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, tok := range toks {
		all = append(all, tok.String())
	}
	joined := strings.Join(all, " ")
	for _, want := range []string{"Task", `"s"`, "3.5", "EOF"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("token strings %q missing %q", joined, want)
		}
	}
}

func TestStreamDeclarations(t *testing.T) {
	src := `
Stream(cameraFeed, rate='8Hz', item='2MB')
TaskGraph(list=['recognize'])
Task(recognize, cameraFeed, stats, 'code/rec')
`
	g, err := ParseAndAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := g.Streams["cameraFeed"]
	if !ok || st.RateHz != 8 || st.ItemMB != 2 {
		t.Fatalf("stream = %+v ok=%v", st, ok)
	}
	rec := g.byName["recognize"]
	if got, ok := g.StreamFor(rec); !ok || got.Name != "cameraFeed" {
		t.Fatal("StreamFor did not resolve the task's input stream")
	}
	// Tasks without a stream input resolve to nothing.
	g2, err := ParseAndAnalyze("Stream(s, rate='4Hz', item='1MB')\nTaskGraph(list=['t'])\nTask(t, other, None, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2.StreamFor(g2.Tasks[0]); ok {
		t.Fatal("phantom stream resolution")
	}
}

func TestStreamErrors(t *testing.T) {
	bad := []string{
		"Stream(s, rate='0Hz')\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
		"Stream(s, rate='fastHz')\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
		"Stream(s, rate='8Hz', item='bigMB')\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
		"Stream(s)\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
		"Stream(s, rate='8Hz', wobble='1')\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
		"Stream(s, rate='8Hz')\nStream(s, rate='8Hz')\nTaskGraph(list=['a'])\nTask(a, None, None, 'x')",
	}
	for i, src := range bad {
		if _, err := ParseAndAnalyze(src); err == nil {
			t.Fatalf("bad stream %d accepted", i)
		}
	}
}
