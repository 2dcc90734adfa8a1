package hivemind

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exported identifiers under internal/ that
// the gate accepts although no non-test file uses them, and the
// exported struct fields it accepts although no non-test file reads or
// sets them. Keys are "<package dir>.<Name>", "<package dir>.<Recv>.<Method>"
// or "<package dir>.<Type>.<Field>"; a struct type's key covers all its
// fields. Each value is the reason the identifier stays.
var exportAllowlist = map[string]string{
	"internal/chaos.Injector.FaultCount":    "chaos harness: the fault e2e suites count faults per op",
	"internal/chaos.Injector.Heal":          "chaos harness: the partition e2e suites heal the network",
	"internal/chaos.Injector.Partition":     "chaos harness: the transport e2e suite blackholes one direction of every wrapped connection",
	"internal/chaos.Injector.PartitionPair": "chaos harness: the partition e2e suite cuts one replica link",
	"internal/chaos.Injector.Script":        "chaos harness: the fault e2e suites script exact fault sequences",
	"internal/chaos.Injector.SetConfig":     "chaos harness: rpc's data-plane fault test arms transport faults mid-call",
	"internal/chaos.Injector.WrapConn":      "chaos harness: the transport e2e suites wrap their dialled connections",
	"internal/fleet.Fleet.Crash":            "chaos harness: the durability e2e suite crashes the whole fleet",

	"internal/rpc.EncodeBatch":           "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/rpc.DecodeBatchReplies":    "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/rpc.BatchReply.ReplyError": "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/platform.Adapter.Submit":   "public surface: hivemind.Swarm.NewAdapter returns the Adapter, and Submit is how a caller drives §4.2 runtime re-placement",

	"internal/controller.Replica.Tasks": "only its tests read the replicated in-flight task table, but benchmark/live.go pins the table's writers through runtime.TaskTracker; the table goes with GatewayConfig.Tracker after ROADMAP I",

	"internal/chaos.Config":                     "chaos harness: the fault e2e suites set the injector's fault probabilities and delays; production injectors only kill on cue",
	"internal/runtime.Config.Injector":          "chaos harness: the runtime and chaos e2e suites kill a container mid-invocation through it",
	"internal/fleet.Config.Replica":             "test seam: the fleet and chaos suites shrink election and lease timings through it",
	"internal/runtime.AdmissionStats.ShedCoDel": "always 0 since CoDel went; only benchmark/live.go reads it, for its runtime.shed_codel row, and ROADMAP I deletes both",
}

// exportScan is what one pass over a source tree found.
type exportScan struct {
	// files counts the non-test .go files loaded under each area: "."
	// (the root module's own package), "internal", "cmd", "examples"
	// and "benchmark".
	files map[string]int
	// exports and fields count the exported declarations (methods
	// included) and the exported struct fields under internal/ that the
	// scan checked.
	exports, fields int
	// unused lists the exported declarations under internal/ that no
	// non-test file uses, as "<dir>.<Name>" or "<dir>.<Recv>.<Method>",
	// sorted.
	unused []string
	// deadFields lists the exported struct fields under internal/ that
	// no non-test file reads, or that none sets, as
	// "<dir>.<Type>.<Field> <kind>" with kind write-only, never-set or
	// unused, sorted.
	deadFields []string
}

// stdImporter type-checks the standard library from GOROOT's sources.
// One instance, and the file set every scan parses into, serves all
// scans, so each stdlib package is checked once per test binary.
var (
	stdFset     = token.NewFileSet()
	stdImporter = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(stdFset, "source", nil)
	})
)

// exportLoader type-checks the non-test packages of every module under
// fsys. A go.mod marks a module root; an import path maps to a
// directory by stripping the longest module path it starts with, and
// any other path is the standard library's.
type exportLoader struct {
	fsys    fs.FS
	modules map[string]string // module path -> module root dir
	files   map[string][]string
	pkgs    map[string]*types.Package // by dir
	asts    []*ast.File
	info    *types.Info
}

// scanExports type-checks every non-test package under fsys (the root
// and benchmark modules both) and reports the exported functions,
// methods, types, consts and vars declared under internal/ that no
// non-test file uses. An object is used when some non-test file's
// identifier or selector resolves to it. A method also counts as used
// when its receiver, or a pointer to it, implements an interface of
// the loaded program (stdlib included) that declares the method's
// name, and an Is, As or Unwrap method counts on a type that
// implements error, for the errors package calls it dynamically.
//
// It also reports the exported fields of the struct types declared
// under internal/ that no non-test file reads or that none sets; see
// fieldAccess for what counts as which.
func scanExports(fsys fs.FS) (exportScan, error) {
	scan := exportScan{files: map[string]int{}}
	l := &exportLoader{
		fsys:    fsys,
		modules: map[string]string{},
		files:   map[string][]string{},
		pkgs:    map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		switch {
		case d.IsDir():
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
		case name == "go.mod":
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if mod, ok := strings.CutPrefix(line, "module "); ok {
					l.modules[strings.TrimSpace(mod)] = path.Dir(p)
				}
			}
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			dir := path.Dir(p)
			l.files[dir] = append(l.files[dir], p)
			scan.files[strings.SplitN(dir, "/", 2)[0]]++
		}
		return nil
	})
	if err != nil {
		return scan, err
	}
	for dir := range l.files {
		if _, err := l.load(dir); err != nil {
			return scan, err
		}
	}

	// Uses also maps the selector of every x.f to the field or method
	// it picks, promoted ones included.
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[origin(obj)] = true
	}
	read, set, exempt := l.fieldAccess()
	ifaces := l.interfaces()
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	implements := func(t types.Type, iface *types.Interface) bool {
		return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
	}
	for dir, pkg := range l.pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				scan.exports++
				if !used[obj] {
					scan.unused = append(scan.unused, dir+"."+name)
				}
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok && !exempt[st] {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() || f.Embedded() {
						continue
					}
					scan.fields++
					kind := ""
					switch {
					case !read[f] && !set[f]:
						kind = "unused"
					case !read[f]:
						kind = "write-only"
					case !set[f]:
						kind = "never-set"
					default:
						continue
					}
					scan.deadFields = append(scan.deadFields, dir+"."+name+"."+f.Name()+" "+kind)
				}
			}
		methods:
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				scan.exports++
				if used[m] {
					continue
				}
				// Implements is unspecified for an uninstantiated generic
				// type, so its methods need a direct use.
				if named.TypeParams().Len() == 0 {
					for _, iface := range ifaces[m.Name()] {
						if implements(named, iface) {
							continue methods
						}
					}
					if (m.Name() == "Is" || m.Name() == "As" || m.Name() == "Unwrap") && implements(named, errType) {
						continue
					}
				}
				scan.unused = append(scan.unused, dir+"."+name+"."+m.Name())
			}
		}
	}
	sort.Strings(scan.unused)
	sort.Strings(scan.deadFields)
	return scan, nil
}

// fieldAccess walks every non-test file and reports which struct fields
// some file reads and which some file sets, and which struct types are
// exempt because reflection reads or fills them.
//
// A field is set by an assignment, an op-assignment or ++/-- to it, by
// a key of a composite literal or a positional one, by taking its
// address, and by delete or clear on it. Storing into a.B.C, a.B[i] or
// *a.B sets B as well as C. Every other use reads it, except that a
// store does not read what it stores into (a.B.C = v reads neither B
// nor C), nor does x.f = append(x.f, ...) read x.f; &x.f reads as well
// as sets. A struct compared with == or !=, used as a map key or
// passed to reflect.DeepEqual has all its fields read. A struct with a
// tagged field, or reachable from a value passed to encoding/json, is
// exempt.
func (l *exportLoader) fieldAccess() (read, set map[*types.Var]bool, exempt map[*types.Struct]bool) {
	read, set, exempt = map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Struct]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// structs calls fn on every struct type held by value in t; deep
	// also follows pointers, slices and maps, as reflection does.
	structs := func(t types.Type, deep bool, fn func(*types.Struct)) {
		seen := map[types.Type]bool{}
		var walk func(t types.Type)
		walk = func(t types.Type) {
			if seen[t] {
				return
			}
			seen[t] = true
			if n, ok := t.(*types.Named); ok {
				walk(n.Origin().Underlying())
				return
			}
			switch u := t.(type) {
			case *types.Struct:
				fn(u)
				for i := 0; i < u.NumFields(); i++ {
					walk(u.Field(i).Type())
				}
			case *types.Array:
				walk(u.Elem())
			case *types.Pointer:
				if deep {
					walk(u.Elem())
				}
			case *types.Slice:
				if deep {
					walk(u.Elem())
				}
			case *types.Map:
				if deep {
					walk(u.Key())
					walk(u.Elem())
				}
			}
		}
		walk(t)
	}
	readAll := func(st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			read[st.Field(i).Origin()] = true
		}
	}
	calls := func(call *ast.CallExpr, pkg, name string) bool {
		var id *ast.Ident
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			id = fn
		case *ast.SelectorExpr:
			id = fn.Sel
		default:
			return false
		}
		switch obj := l.info.Uses[id].(type) {
		case *types.Builtin:
			return pkg == "" && obj.Name() == name
		case *types.Func:
			return obj.Pkg() != nil && obj.Pkg().Path() == pkg && (name == "" || obj.Name() == name)
		}
		return false
	}
	// chain calls fn on the field selected at each step of a store
	// target: the C and the B of a.B.C, a.B[i].C or (*a.B).C.
	var chain func(e ast.Expr, fn func(*ast.Ident))
	chain = func(e ast.Expr, fn func(*ast.Ident)) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			chain(e.X, fn)
		case *ast.StarExpr:
			chain(e.X, fn)
		case *ast.IndexExpr:
			chain(e.X, fn)
		case *ast.SelectorExpr:
			if field(e.Sel) != nil {
				fn(e.Sel)
				chain(e.X, fn)
			}
		}
	}
	stored, unread := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	store := func(id *ast.Ident) { stored[id], unread[id] = true, true }
	for _, f := range l.asts {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					chain(lhs, store)
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 && calls(call, "", "append") &&
						types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						chain(call.Args[0], func(id *ast.Ident) { unread[id] = true })
					}
				}
			case *ast.IncDecStmt:
				chain(n.X, store)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						chain(e, store)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X, func(id *ast.Ident) { stored[id] = true })
				}
			case *ast.CallExpr:
				switch {
				case (calls(n, "", "delete") || calls(n, "", "clear")) && len(n.Args) > 0:
					chain(n.Args[0], store)
				case calls(n, "encoding/json", ""):
					for _, arg := range n.Args {
						structs(l.info.TypeOf(arg), true, func(st *types.Struct) { exempt[st] = true })
					}
				case calls(n, "reflect", "DeepEqual"):
					for _, arg := range n.Args {
						structs(l.info.TypeOf(arg), true, readAll)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					structs(l.info.TypeOf(n.X), false, readAll)
				}
			case *ast.CompositeLit:
				t := l.info.TypeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						store(kv.Key.(*ast.Ident))
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	for id := range l.info.Uses {
		if v := field(id); v != nil {
			set[v] = set[v] || stored[id]
			read[v] = read[v] || !unread[id]
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type == nil {
			continue
		}
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			structs(m.Key(), false, readAll)
		}
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Tag(i) != "" {
						exempt[st] = true
					}
				}
			}
		}
	}
	return read, set, exempt
}

// origin maps a field or method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// Import resolves an import path to a package of fsys, checking it on
// first use, or else to the standard library.
func (l *exportLoader) Import(importPath string) (*types.Package, error) {
	best := ""
	for mod := range l.modules {
		if (importPath == mod || strings.HasPrefix(importPath, mod+"/")) && len(mod) > len(best) {
			best = mod
		}
	}
	if best == "" {
		return stdImporter().Import(importPath)
	}
	return l.load(path.Join(l.modules[best], strings.TrimPrefix(importPath, best)))
}

// load type-checks the non-test files of dir once.
func (l *exportLoader) load(dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	if len(l.files[dir]) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, p := range l.files[dir] {
		src, err := fs.ReadFile(l.fsys, p)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(stdFset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.asts = append(l.asts, files...)
	// dir's import path: the path of the innermost module holding it,
	// joined with dir relative to that module's root.
	mod, rel := "", ""
	for m, root := range l.modules {
		r, ok := dir, root == "."
		if !ok {
			r, ok = strings.CutPrefix(dir+"/", root+"/")
		}
		if ok && (mod == "" || len(root) > len(l.modules[mod])) {
			mod, rel = m, r
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("%s is in no module", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path.Join(mod, rel), stdFset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// interfaces indexes by method name every interface the loaded program
// can reach: the package-level interfaces of its packages and of every
// stdlib package they import, the interface literals its files spell
// out, and error.
func (l *exportLoader) interfaces() map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range l.pkgs {
		visit(pkg)
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return byName
}

// TestExportedMeansCalled fails on exported API under internal/ that
// nothing outside tests runs: delete it with its tests, or add it to
// exportAllowlist with the reason it must stay. The root package is
// public surface and exempt.
func TestExportedMeansCalled(t *testing.T) {
	scan, err := scanExports(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	// A gate that walks the wrong root passes forever: prove every
	// caller area was read.
	for _, area := range []string{".", "internal", "cmd", "examples", "benchmark"} {
		if scan.files[area] == 0 {
			t.Errorf("parsed no non-test .go file under %q", area)
		}
	}
	if len(exportAllowlist) > 20 {
		t.Errorf("allowlist has %d entries, want at most 20", len(exportAllowlist))
	}
	unused := map[string]bool{}
	allowed := 0
	for _, key := range scan.unused {
		unused[key] = true
		if _, ok := exportAllowlist[key]; ok {
			allowed++
			continue
		}
		t.Errorf("%s is exported but no non-test file uses it: delete it or allowlist it with a reason", key)
	}
	for _, dead := range scan.deadFields {
		key, kind, _ := strings.Cut(dead, " ")
		typ := key[:strings.LastIndex(key, ".")]
		_, ok := exportAllowlist[key]
		if _, whole := exportAllowlist[typ]; whole {
			ok, unused[typ] = true, true
		}
		unused[key] = true
		if ok {
			allowed++
			continue
		}
		t.Errorf("field %s is %s in non-test code: delete it or allowlist it with a reason", key, kind)
	}
	t.Logf("scanned %d exports and %d exported struct fields under internal/: flagged %d and %d, %d of them allowlisted",
		scan.exports, scan.fields, len(scan.unused), len(scan.deadFields), allowed)
	for key, why := range exportAllowlist {
		if why == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !unused[key] {
			t.Errorf("allowlist entry %s is used (or gone): drop the entry", key)
		}
	}
}

// TestScanExportsFixture checks the scanner on trees it can be sure
// of. Each row is one module (a second one under benchmark/ where the
// row needs it) whose lib package declares the exports under test.
func TestScanExportsFixture(t *testing.T) {
	goMod := &fstest.MapFile{Data: []byte("module x\n\ngo 1.22\n")}
	file := func(src string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(src)} }
	testedLib := file(`package lib

func Used() {}

func Dead() {}

type T struct{}

func (*T) Method() {}

const Kept = 1
`)
	testedMain := file(`package main

import "x/internal/lib"

func main() { lib.Used(); var t lib.T; _ = t; _ = lib.Kept }
`)
	testOnly := file(`package lib

func TestDead() { Dead(); new(T).Method() }
`)
	for _, tc := range []struct {
		name string
		fsys fstest.MapFS
		want []string
	}{
		{"dead method sharing a live method's name", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type A struct{}

func (A) Close() {}

type B struct{}

func (B) Close() {}
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() { lib.A{}.Close(); _ = lib.B{} }
`),
		}, []string{"internal/lib.B.Close"}},
		{"methods reached only through interfaces", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Sayer interface{ Say() }

type C struct{}

func (C) Say() {}

func (*C) String() string { return "c" }
`),
			"cmd/x/main.go": file(`package main

import (
	"fmt"

	"x/internal/lib"
)

func main() {
	var s lib.Sayer = lib.C{}
	s.Say()
	fmt.Println(&lib.C{})
}
`),
		}, nil},
		{"unreferenced", fstest.MapFS{
			"go.mod":                   goMod,
			"internal/lib/lib.go":      testedLib,
			"internal/lib/lib_test.go": testOnly,
			"cmd/x/main.go":            testedMain,
		}, []string{"internal/lib.Dead", "internal/lib.T.Method"}},
		{"referenced from benchmark", fstest.MapFS{
			"go.mod":                   goMod,
			"internal/lib/lib.go":      testedLib,
			"internal/lib/lib_test.go": testOnly,
			"cmd/x/main.go":            testedMain,
			"benchmark/go.mod":         file("module x/benchmark\n\ngo 1.22\n\nrequire x v0.0.0\n\nreplace x => ../\n"),
			"benchmark/live.go": file(`package main

import "x/internal/lib"

func main() { lib.Dead(); new(lib.T).Method() }
`),
		}, nil},
		{"fields only written or only read", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type S struct{ Stored, Settable, Live int }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	s := lib.S{Stored: 1}
	s.Live++
	_ = s.Settable + s.Live
}
`),
		}, []string{"internal/lib.S.Settable never-set", "internal/lib.S.Stored write-only"}},
		{"a store through a field reads neither field", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Env struct {
	Trace Trace
	Tags  []string
}

type Trace struct{ TraceID, Span int }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	var env lib.Env
	env.Trace.TraceID = 1
	env.Trace.Span = env.Trace.Span + 1
	env.Tags = append(env.Tags, "x")
}
`),
		}, []string{"internal/lib.Env.Tags write-only", "internal/lib.Trace.TraceID write-only"}},
		{"literals and addresses set fields", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type P struct{ X, Y int }

type K struct{ V, Unset int }

type A struct{ N int }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func set(p *int) { *p = 1 }

func main() {
	p := lib.P{1, 2}
	k := &lib.K{V: 3}
	var a lib.A
	set(&a.N)
	_ = p.X + p.Y + k.V + k.Unset + a.N
}
`),
		}, []string{"internal/lib.K.Unset never-set"}},
		{"reflected types are exempt", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file("package lib\n\n" +
				"type Wire struct{ A int; Sub []*Nested }\n\n" +
				"type Nested struct{ B int }\n\n" +
				"type Tagged struct {\n\tC int `x:\"c\"`\n\tD int\n}\n\n" +
				"type Plain struct{ E int }\n"),
			"cmd/x/main.go": file(`package main

import (
	"encoding/json"

	"x/internal/lib"
)

func main() {
	_, _ = json.Marshal(lib.Wire{A: 1, Sub: []*lib.Nested{{B: 2}}})
	_ = lib.Tagged{C: 1, D: 2}
	_ = lib.Plain{E: 1}
}
`),
		}, []string{"internal/lib.Plain.E write-only"}},
		{"compared and map-key types read every field", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Key struct{ A, B int }

type Cmp struct {
	C  int
	In Inner
}

type Inner struct{ D int }

type Plain struct{ E int }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	m := map[lib.Key]int{}
	m[lib.Key{A: 1, B: 2}]++
	_ = lib.Cmp{C: 1, In: lib.Inner{D: 1}} != lib.Cmp{}
	_ = lib.Plain{E: 1}
}
`),
		}, []string{"internal/lib.Plain.E write-only"}},
		{"reads from benchmark count, reads from tests do not", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type R struct{ F, G int }

func New() R { return R{F: 1, G: 2} }
`),
			"internal/lib/lib_test.go": file(`package lib

func TestG() { _ = New().G }
`),
			"benchmark/go.mod": file("module x/benchmark\n\ngo 1.22\n\nrequire x v0.0.0\n\nreplace x => ../\n"),
			"benchmark/live.go": file(`package main

import "x/internal/lib"

func main() { _ = lib.New().F }
`),
		}, []string{"internal/lib.R.G write-only"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, err := scanExports(tc.fsys)
			if err != nil {
				t.Fatal(err)
			}
			got := append(scan.unused, scan.deadFields...)
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("flagged %v, want %v", got, tc.want)
			}
		})
	}
}
