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
// the gate accepts although no non-test file uses them.
// Keys are "<package dir>.<Name>" or "<package dir>.<Recv>.<Method>";
// each value is the reason the identifier stays.
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
}

// exportScan is what one pass over a source tree found.
type exportScan struct {
	// files counts the non-test .go files loaded under each area: "."
	// (the root module's own package), "internal", "cmd", "examples"
	// and "benchmark".
	files map[string]int
	// unused lists the exported declarations under internal/ that no
	// non-test file uses, as "<dir>.<Name>" or "<dir>.<Recv>.<Method>",
	// sorted.
	unused []string
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
			if obj.Exported() && !used[obj] {
				scan.unused = append(scan.unused, dir+"."+name)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
		methods:
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] {
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
	return scan, nil
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
	if len(exportAllowlist) > 15 {
		t.Errorf("allowlist has %d entries, want at most 15", len(exportAllowlist))
	}
	unused := map[string]bool{}
	for _, key := range scan.unused {
		unused[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test file uses it: delete it or allowlist it with a reason", key)
		}
	}
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, err := scanExports(tc.fsys)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(scan.unused, ",") != strings.Join(tc.want, ",") {
				t.Errorf("unused = %v, want %v", scan.unused, tc.want)
			}
		})
	}
}
