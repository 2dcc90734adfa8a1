package hivemind

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exported identifiers under internal/ that
// the gate accepts although no non-test file references them by name.
// Keys are "<package dir>.<Name>" or "<package dir>.<Recv>.<Method>";
// each value is the reason the identifier stays.
var exportAllowlist = map[string]string{
	"internal/netsim.flowHeap.Less": "heap.Interface method: container/heap calls it",

	"internal/chaos.Injector.FaultCount":    "chaos harness: the fault e2e suites count faults per op",
	"internal/chaos.Injector.Heal":          "chaos harness: the partition e2e suites heal the network",
	"internal/chaos.Injector.PartitionPair": "chaos harness: the partition e2e suite cuts one replica link",
	"internal/chaos.Injector.Script":        "chaos harness: the fault e2e suites script exact fault sequences",
	"internal/chaos.Injector.SetConfig":     "chaos harness: rpc's data-plane fault test arms transport faults mid-call",
	"internal/chaos.Injector.WrapConn":      "chaos harness: the transport e2e suites wrap their dialled connections",
	"internal/fleet.Fleet.Crash":            "chaos harness: the durability e2e suite crashes the whole fleet",

	"internal/rpc.EncodeBatch":           "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/rpc.DecodeBatchReplies":    "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/rpc.BatchReply.ReplyError": "rpc/batch.go lives only for benchmark/live.go; ROADMAP I deletes it",
	"internal/platform.Adapter.Submit":   "public surface: hivemind.Swarm.NewAdapter returns the Adapter, and Submit is how a caller drives §4.2 runtime re-placement",
}

// exportScan is what one pass over a source tree found.
type exportScan struct {
	// files counts the non-test .go files parsed under each area: "."
	// (the root module's own package), "internal", "cmd", "examples"
	// and "benchmark".
	files map[string]int
	// unused lists the exported declarations under internal/ whose
	// name no non-test file references, as "<dir>.<Name>" or
	// "<dir>.<Recv>.<Method>", sorted.
	unused []string
}

// scanExports parses every non-test .go file under fsys (the whole
// repository, the benchmark module included) and reports the exported
// functions, methods, types, consts and vars declared under internal/
// that no non-test file names outside their own declaration. Matching
// is by identifier name alone, so any use of the same name anywhere
// counts: the gate errs toward "used".
func scanExports(fsys fs.FS) (exportScan, error) {
	scan := exportScan{files: map[string]int{}}
	fset := token.NewFileSet()
	type decl struct {
		key   string
		ident *ast.Ident
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	var parsed []*ast.File

	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed = append(parsed, f)
		dir := path.Dir(p)
		area := strings.SplitN(dir, "/", 2)[0]
		scan.files[area]++
		if area != "internal" {
			return nil
		}
		add := func(key string, id *ast.Ident) {
			if id.IsExported() {
				decls = append(decls, decl{dir + "." + key, id})
				declIdents[id] = true
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				key := dl.Name.Name
				if dl.Recv != nil && len(dl.Recv.List) == 1 {
					key = recvName(dl.Recv.List[0].Type) + "." + key
				}
				add(key, dl.Name)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return scan, err
	}

	refs := map[string]int{}
	for _, f := range parsed {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				refs[id.Name]++
			}
			return true
		})
	}
	for _, d := range decls {
		if refs[d.ident.Name] == 0 {
			scan.unused = append(scan.unused, d.key)
		}
	}
	sort.Strings(scan.unused)
	return scan, nil
}

// recvName is the base type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
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
			t.Errorf("%s is exported but no non-test file references it: delete it or allowlist it with a reason", key)
		}
	}
	for key, why := range exportAllowlist {
		if why == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !unused[key] {
			t.Errorf("allowlist entry %s is referenced (or gone): drop the entry", key)
		}
	}
}

// TestScanExportsFixture checks the scanner on a tree it can be sure
// of: an unreferenced export is reported, and the same export named
// only from the benchmark module is not.
func TestScanExportsFixture(t *testing.T) {
	lib := &fstest.MapFile{Data: []byte(`package lib

func Used() {}

func Dead() {}

type T struct{}

func (*T) Method() {}

const Kept = 1
`)}
	mainFile := &fstest.MapFile{Data: []byte(`package main

import "x/internal/lib"

func main() { lib.Used(); var t lib.T; _ = t; _ = lib.Kept }
`)}
	testOnly := &fstest.MapFile{Data: []byte(`package lib

func TestDead() { Dead(); new(T).Method() }
`)}
	for _, tc := range []struct {
		name string
		fsys fstest.MapFS
		want []string
	}{
		{"unreferenced", fstest.MapFS{
			"internal/lib/lib.go":      lib,
			"internal/lib/lib_test.go": testOnly,
			"cmd/x/main.go":            mainFile,
		}, []string{"internal/lib.Dead", "internal/lib.T.Method"}},
		{"referenced from benchmark", fstest.MapFS{
			"internal/lib/lib.go":      lib,
			"internal/lib/lib_test.go": testOnly,
			"cmd/x/main.go":            mainFile,
			"benchmark/live.go": {Data: []byte(`package main

import "x/internal/lib"

func run() { lib.Dead(); new(lib.T).Method() }
`)},
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
