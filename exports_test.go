package hivemind

import (
	"fmt"
	"go/ast"
	"go/constant"
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
	// scan checked; settable counts the fields of those whose struct
	// type's name ends in Config or Options, and seams the fields that
	// would be one-value but that a test sets.
	exports, fields, settable, seams int
	// unused lists the exported declarations under internal/ that no
	// non-test file uses, as "<dir>.<Name>" or "<dir>.<Recv>.<Method>",
	// sorted.
	unused []string
	// deadFields lists the exported struct fields under internal/ that
	// no non-test file reads, that none sets, or that non-test code only
	// ever sets to one value, as "<dir>.<Type>.<Field> <kind>" with kind
	// write-only, never-set, unused or one-value, sorted.
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
	tests   map[string][]string       // _test.go files by dir
	pkgs    map[string]*types.Package // by dir
	asts    map[string][]*ast.File    // by dir
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
// fieldAccess for what counts as which. A field that non-test code
// reads and sets is one-value when every set is a plain store or
// literal element inside a default site and all store the same value,
// unless a test sets it: a test seam stays settable. A default site is
// a function of the struct's own package whose results include the
// struct type or a pointer to it (DefaultConfig, Preset, withDefaults),
// and a value is a constant expression or a call without arguments to
// a package-level function; a field a default site's literal leaves
// out stores its zero value.
func scanExports(fsys fs.FS) (exportScan, error) {
	scan := exportScan{files: map[string]int{}}
	l := &exportLoader{
		fsys:    fsys,
		modules: map[string]string{},
		files:   map[string][]string{},
		tests:   map[string][]string{},
		pkgs:    map[string]*types.Package{},
		asts:    map[string][]*ast.File{},
		info:    newInfo(),
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
		case strings.HasSuffix(name, "_test.go"):
			l.tests[path.Dir(p)] = append(l.tests[path.Dir(p)], p)
		case strings.HasSuffix(name, ".go"):
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
	var files []*ast.File
	for _, fs := range l.asts {
		files = append(files, fs...)
	}
	read, set, values, exempt := l.fieldAccess(files, l.info)
	seams, err := l.testSets()
	if err != nil {
		return scan, err
	}
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
					if strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") {
						scan.settable++
					}
					key := dir + "." + name + "." + f.Name()
					kind := ""
					switch {
					case !read[f] && !set[f]:
						kind = "unused"
					case !read[f]:
						kind = "write-only"
					case !set[f]:
						kind = "never-set"
					case len(values[f]) != 1 || values[f][""]:
						continue
					case seams[key]:
						scan.seams++
						continue
					default:
						kind = "one-value"
					}
					scan.deadFields = append(scan.deadFields, key+" "+kind)
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

// fieldAccess walks files, type-checked into info, and reports which
// struct fields they read and which they set, the values each set
// stores (see scanExports), and which struct types are exempt because
// reflection reads or fills them.
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
//
// values maps each set field to the values its sets store, keyed as
// valueKey does; a set that is not a plain store or literal element
// inside a default site of the field's struct stores "", a value that
// varies.
func (l *exportLoader) fieldAccess(files []*ast.File, info *types.Info) (read, set map[*types.Var]bool, values map[*types.Var]map[string]bool, exempt map[*types.Struct]bool) {
	read, set, exempt = map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Struct]bool{}
	values = map[*types.Var]map[string]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
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
	callee := func(call *ast.CallExpr) types.Object {
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return info.Uses[fn]
		case *ast.SelectorExpr:
			return info.Uses[fn.Sel]
		}
		return nil
	}
	calls := func(call *ast.CallExpr, pkg, name string) bool {
		switch obj := callee(call).(type) {
		case *types.Builtin:
			return pkg == "" && obj.Name() == name
		case *types.Func:
			return obj.Pkg() != nil && obj.Pkg().Path() == pkg && (name == "" || obj.Name() == name)
		}
		return false
	}
	// valueKey names the value e stores when it is a constant or a call
	// without arguments to a package-level function, and is "" when the
	// value varies.
	valueKey := func(e ast.Expr) string {
		if tv := info.Types[e]; tv.Value != nil {
			return constKey(tv.Value)
		}
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) > 0 || info.TypeOf(call) == nil {
			return ""
		}
		// A call that returns a pointer, map, slice, channel, func or
		// interface makes a new object each time, not one value.
		switch info.TypeOf(call).Underlying().(type) {
		case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
			return ""
		}
		if fn, ok := callee(call).(*types.Func); ok && fn.Pkg() != nil && fn.Parent() == fn.Pkg().Scope() {
			return "call " + fn.FullName()
		}
		return ""
	}
	// owner maps each field of a package-level struct type to the type.
	owner := map[*types.Var]*types.TypeName{}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i)] = tn
					}
				}
			}
		}
	}
	// sites holds the struct types the function being walked is a
	// default site of.
	var sites map[*types.TypeName]bool
	write := func(v *types.Var, key string) {
		if v == nil {
			return
		}
		if tn := owner[v]; tn == nil || !sites[tn] {
			key = ""
		}
		if values[v] == nil {
			values[v] = map[string]bool{}
		}
		values[v][key] = true
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
	// store records a store of the value keyed key into id's field.
	store := func(id *ast.Ident, key string) {
		stored[id], unread[id] = true, true
		write(field(id), key)
	}
	varies := func(id *ast.Ident) { store(id, "") }
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) != len(n.Lhs) {
					chain(lhs, varies)
					continue
				}
				// Only a plain store into x.f itself stores a value.
				sel, direct := ast.Unparen(lhs).(*ast.SelectorExpr)
				chain(lhs, func(id *ast.Ident) {
					key := ""
					if direct && id == sel.Sel && n.Tok == token.ASSIGN {
						key = valueKey(n.Rhs[i])
					}
					store(id, key)
				})
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 && calls(call, "", "append") &&
					types.ExprString(call.Args[0]) == types.ExprString(lhs) {
					chain(call.Args[0], func(id *ast.Ident) { unread[id] = true })
				}
			}
		case *ast.IncDecStmt:
			chain(n.X, varies)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					chain(e, varies)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X, func(id *ast.Ident) {
					stored[id] = true
					write(field(id), "")
				})
			}
		case *ast.CallExpr:
			switch {
			case (calls(n, "", "delete") || calls(n, "", "clear")) && len(n.Args) > 0:
				chain(n.Args[0], varies)
			case calls(n, "encoding/json", ""):
				for _, arg := range n.Args {
					structs(info.TypeOf(arg), true, func(st *types.Struct) { exempt[st] = true })
				}
			case calls(n, "reflect", "DeepEqual"):
				for _, arg := range n.Args {
					structs(info.TypeOf(arg), true, readAll)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				structs(info.TypeOf(n.X), false, readAll)
			}
		case *ast.CompositeLit:
			// A test file's type errors can leave a literal untyped.
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			given := map[*types.Var]bool{}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					id := kv.Key.(*ast.Ident)
					store(id, valueKey(kv.Value))
					given[field(id)] = true
				} else {
					set[st.Field(i).Origin()] = true
					write(st.Field(i).Origin(), valueKey(elt))
				}
			}
			// A default site's keyed literal stores the zero value into
			// each field it leaves out.
			if named, ok := t.(*types.Named); ok && sites[named.Origin().Obj()] && len(n.Elts) < st.NumFields() {
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i).Origin(); !given[v] {
						write(v, zeroKey(v.Type()))
					}
				}
			}
		}
		return true
	}
	for _, f := range files {
		pkg := l.pkgs[path.Dir(stdFset.File(f.Pos()).Name())]
		for _, decl := range f.Decls {
			sites = nil
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Type.Results != nil {
				for _, res := range fd.Type.Results.List {
					t := info.TypeOf(res.Type)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == pkg {
						if sites == nil {
							sites = map[*types.TypeName]bool{}
						}
						sites[named.Origin().Obj()] = true
					}
				}
			}
			ast.Inspect(decl, visit)
		}
	}
	for id := range info.Uses {
		if v := field(id); v != nil {
			set[v] = set[v] || stored[id]
			read[v] = read[v] || !unread[id]
		}
	}
	for _, tv := range info.Types {
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
	return read, set, values, exempt
}

// constKey keys a constant so that equal numbers of any kind match.
func constKey(v constant.Value) string {
	if v.Kind() == constant.Int {
		v = constant.ToFloat(v)
	}
	return v.ExactString()
}

// zeroKey keys the zero value of t as constKey and valueKey do.
func zeroKey(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsNumeric != 0:
			return constKey(constant.MakeInt64(0))
		case b.Info()&types.IsString != 0:
			return constKey(constant.MakeString(""))
		case b.Info()&types.IsBoolean != 0:
			return constKey(constant.MakeBool(false))
		}
	}
	return "zero"
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
	l.asts[dir] = files
	importPath, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, stdFset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// importPath is dir's import path: the path of the innermost module
// holding it, joined with dir relative to that module's root.
func (l *exportLoader) importPath(dir string) (string, error) {
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
		return "", fmt.Errorf("%s is in no module", dir)
	}
	return path.Join(mod, rel), nil
}

// testSets type-checks the _test.go files of every directory, each
// in-package test file with its package's other files and each
// external test package against the non-test packages, and reports as
// "<dir>.<Type>.<Field>" the fields of the loaded packages that some
// test sets. Type errors are ignored: build constraints are not
// evaluated, so a package's race_on and race_off test files both load
// and declare the same names.
func (l *exportLoader) testSets() (map[string]bool, error) {
	info := newInfo()
	// key names each struct field of the loaded packages and of their
	// test variants.
	key := map[*types.Var]string{}
	keys := func(dir string, pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					key[st.Field(i)] = dir + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}
	for dir, pkg := range l.pkgs {
		keys(dir, pkg)
	}
	var tests []*ast.File
	for dir, paths := range l.tests {
		byPkg := map[string][]*ast.File{}
		for _, p := range paths {
			src, err := fs.ReadFile(l.fsys, p)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(stdFset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
			tests = append(tests, f)
		}
		importPath, err := l.importPath(dir)
		if err != nil {
			return nil, err
		}
		for name, files := range byPkg {
			p := importPath
			if strings.HasSuffix(name, "_test") {
				p += "_test"
			} else {
				files = append(files, l.asts[dir]...)
			}
			conf := types.Config{Importer: l, Error: func(error) {}}
			pkg, _ := conf.Check(p, stdFset, files, info)
			keys(dir, pkg)
		}
	}
	_, set, _, _ := l.fieldAccess(tests, info)
	seams := map[string]bool{}
	for v, ok := range set {
		if ok && key[v] != "" {
			seams[key[v]] = true
		}
	}
	return seams, nil
}

// newInfo records what the gate reads of a type-check: each
// expression's type and constant value, and the object each identifier
// and selector resolves to.
func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
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
// exportAllowlist with the reason it must stay. It also fails on an
// exported field that only its package's defaults set, to one value:
// make it a constant. The root package is public surface and exempt.
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
	oneValue := 0
	for _, dead := range scan.deadFields {
		key, kind, _ := strings.Cut(dead, " ")
		if kind == "one-value" {
			// The allowlist keeps no constant: a test that sets the
			// field shows it is a seam.
			oneValue++
			t.Errorf("field %s holds one value in non-test code, stored only by its package's defaults: make it a constant", key)
			continue
		}
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
	t.Logf("settable values (fields of *Config/*Options structs): %d; fields flagged one-value: %d; test seams: %d",
		scan.settable, oneValue, scan.seams)
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

func New(f int) R { return R{F: f, G: 2} }
`),
			"internal/lib/lib_test.go": file(`package lib

func TestG() { _ = New(1).G }
`),
			"benchmark/go.mod": file("module x/benchmark\n\ngo 1.22\n\nrequire x v0.0.0\n\nreplace x => ../\n"),
			"benchmark/live.go": file(`package main

import "x/internal/lib"

func main() { _ = lib.New(1).F }
`),
		}, []string{"internal/lib.R.G write-only"}},
		{"one constructor sets a constant", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Lat struct{ BaseS float64 }

func DefaultLat() Lat { return Lat{BaseS: 2} }

type Config struct {
	Rate float64
	Lat  Lat
}

func DefaultConfig() Config { return Config{Rate: 0.5, Lat: DefaultLat()} }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	cfg := lib.DefaultConfig()
	_ = cfg.Rate + cfg.Lat.BaseS
}
`),
		}, []string{"internal/lib.Config.Lat one-value", "internal/lib.Config.Rate one-value", "internal/lib.Lat.BaseS one-value"}},
		{"two constructors set different constants", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Config struct{ Speed, Range, Mass float64 }

func DroneConfig() Config { return Config{Speed: 5, Range: 3, Mass: 1} }

func RoverConfig() Config { return Config{Speed: 1, Mass: 1.0} }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	d, r := lib.DroneConfig(), lib.RoverConfig()
	_ = d.Speed + d.Range + d.Mass + r.Speed + r.Range + r.Mass
}
`),
		}, []string{"internal/lib.Config.Mass one-value"}},
		{"a constructor copies a parameter", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Env struct{ Devices, Cores int }

func DefaultEnv(devices int) Env { return Env{Devices: devices, Cores: 480} }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	env := lib.DefaultEnv(16)
	_ = env.Devices * env.Cores
}
`),
		}, []string{"internal/lib.Env.Cores one-value"}},
		{"a caller outside the package sets the field", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Config struct{ Timeout, Retries int }

func DefaultConfig() Config { return Config{Timeout: 3, Retries: 2} }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	cfg := lib.DefaultConfig()
	cfg.Timeout = 3
	_ = cfg.Timeout + cfg.Retries
}
`),
		}, []string{"internal/lib.Config.Retries one-value"}},
		{"result fields counted or made fresh", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Log struct{ n int }

func NewLog() *Log { return &Log{} }

type Result struct {
	Done  int
	Total float64
	Log   *Log
	Kind  int
}

func Run(n int) Result {
	r := Result{Log: NewLog(), Kind: 1}
	for i := 0; i < n; i++ {
		r.Done++
		r.Total += 0.5
	}
	return r
}
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	r := lib.Run(3)
	_, _ = float64(r.Done+r.Kind)+r.Total, r.Log
}
`),
		}, []string{"internal/lib.Result.Kind one-value"}},
		{"a field a test sets is a seam", fstest.MapFS{
			"go.mod": goMod,
			"internal/lib/lib.go": file(`package lib

type Config struct{ KeepAlive, Workers, Depth int }

func DefaultConfig() Config { return Config{KeepAlive: 20, Workers: 4, Depth: 8} }
`),
			"internal/lib/lib_test.go": file(`package lib

func TestShortKeepAlive() {
	c := DefaultConfig()
	c.KeepAlive = 1
	_ = c
}
`),
			"internal/lib/x_test.go": file(`package lib_test

import "x/internal/lib"

func TestOneWorker() { _ = lib.Config{Workers: 1} }
`),
			"cmd/x/main.go": file(`package main

import "x/internal/lib"

func main() {
	c := lib.DefaultConfig()
	_ = c.KeepAlive + c.Workers + c.Depth
}
`),
		}, []string{"internal/lib.Config.Depth one-value"}},
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
