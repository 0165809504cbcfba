package deeprest_test

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// orphanAllowed lists the internal packages nothing shipped may import, each
// with the reason it is kept anyway.
var orphanAllowed = map[string]string{
	"repro/internal/testutil": "test helper: fixtures shared by the packages' tests",
	"repro/internal/des":      "oracle: TestAgreesWithAnalyticModel is the only check sim.LatencyModel has",
}

// TestNoOrphanPackages: every repro/internal/... package is reachable from a
// binary, an example, the public deeprest package or the bench/ module.
// A package only its own tests import is code a reader must still rule out;
// it is deleted, or allowed above with a reason.
func TestNoOrphanPackages(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	reachable := map[string]bool{}
	for _, args := range [][]string{
		{"list", "-deps", "./cmd/...", "./examples/...", "."},
		{"list", "-C", "bench", "-deps", "."},
	} {
		for _, pkg := range goList(t, args...) {
			reachable[pkg] = true
		}
	}
	present := map[string]bool{}
	for _, pkg := range goList(t, "list", "./internal/...") {
		present[pkg] = true
		switch _, allowed := orphanAllowed[pkg]; {
		case reachable[pkg] && allowed:
			t.Errorf("%s is reachable now: drop it from orphanAllowed", pkg)
		case !reachable[pkg] && !allowed:
			t.Errorf("%s is imported by no binary, example, public API or bench/: delete it, or add it to orphanAllowed with a reason", pkg)
		}
	}
	for pkg := range orphanAllowed {
		if !present[pkg] {
			t.Errorf("orphanAllowed names %s, which no longer exists", pkg)
		}
	}
}

func goList(t *testing.T, args ...string) []string {
	return strings.Fields(goListRaw(t, args...))
}

func goListRaw(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// testOnlyAllowed lists the package-level symbols and methods of internal/
// that no non-test code reaches, each with the reason it is kept anyway.
var testOnlyAllowed = map[string]string{
	"obs.Lint":                 "oracle: the exposition grammar six packages' tests hold every /metrics scrape to",
	"sim.Fingerprint":          "oracle: bit-identity of two runs as one string compare (the sim and topo goldens)",
	"app.Toy":                  "fixture: the three-component application every package's tests train on",
	"sim.WithMeasurementNoise": "determinism knob: exactness tests switch scrape noise off",
	"sim.WithQueueFactor":      "determinism knob: accounting tests switch queuing inflation off, the queuing test sets it",
	"faults.MustParse":         "test helper: Parse for constant specs, shared by three packages' tests",
	"service.encodeEstimate":   "oracle entry: encodeSorted with its own sort, the encoder's byte wall (TestEncodeEstimateMatchesMarshal) calls it",

	"nn/layers.GRUCell.StepReference": "oracle: the primitive-op chain the fused GRU step and its adjoint are held to bit for bit",
	"nn/ad.Tape.NumNodes":             "probe: the arena and fused-step tests count the nodes a tape recorded",
	"nn/ad.Tape.Column":               "oracle: phase B's tape reference (estimator's phaseb_test.go) records it",
	"nn/layers.Slab.State":            "probe: tests and phase B's tape reference read one trajectory's state at a window",
	"obs.Histogram.Count":             "probe: tests read what a histogram observed without scraping /metrics",
	"obs.Histogram.Sum":               "probe: tests read what a histogram observed without scraping /metrics",
	"telemetry.Server.ExtractorGen":   "probe: the pipeline and service tests check which generation's extractor a store holds",
	"trace.Span.Child":                "fixture: builds the hand-made traces six packages' tests feed the pipeline",
	"trace.Span.Clone":                "fixture: tests that perturb a trace work on a deep copy",
}

// TestNoTestOnlySymbols extends TestNoOrphanPackages from packages to
// symbols: every package-level func, type, var and const and every method a
// non-test file under internal/ declares is reached, transitively, from
// non-test code of a binary, an example, the public deeprest package or the
// bench/ module. A symbol only tests reach is a feature nothing shipped can
// call; it is deleted, or allowed above with a reason (what an allowed
// symbol references is then live too). References are resolved by go/types
// over the packages' non-test files for this GOOS/GOARCH, their standard
// library imports read from `go list -export` data, and a reference counts
// only if the declaration it sits in is itself live. A method of a live type
// is also live when it implements an interface method that live code calls,
// or one of an interface a standard package the module imports declares
// (fmt.Stringer, http.Handler, sort.Interface: the library calls those).
// Packages in orphanAllowed are skipped.
func TestNoTestOnlySymbols(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed // the two modules' packages, each after its imports
	exports := map[string]string{}
	for _, args := range [][]string{
		{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./..."},
		{"list", "-C", "bench", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./..."},
	} {
		dec := json.NewDecoder(strings.NewReader(goListRaw(t, args...)))
		for dec.More() {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if _, seen := exports[p.ImportPath]; !seen {
				exports[p.ImportPath] = ""
				pkgs = append(pkgs, p)
			}
		}
	}

	// One universe: the module's packages checked from source, each once,
	// the standard library read from export data by one importer.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	declared := map[types.Object]ast.Node{}
	var roots []ast.Node
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		shipped := !strings.HasPrefix(p.ImportPath, "repro/internal/")
		add := func(name *ast.Ident, node ast.Node) {
			if shipped || name.Name == "init" || name.Name == "_" {
				roots = append(roots, node)
			} else if obj := info.Defs[name]; obj != nil {
				declared[obj] = node
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(name, spec)
							}
						}
					}
				}
			}
		}
	}

	// Interface methods that count as called on whatever implements them:
	// every method of an interface a standard package the module imports
	// declares (error's too), and those live code calls.
	called := map[string][]*types.Interface{} // method name -> interfaces
	callable := func(iface *types.Interface, name string) {
		if !slices.Contains(called[name], iface) {
			called[name] = append(called[name], iface)
		}
	}
	callable(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error")
	for _, pkg := range checked {
		for _, imp := range pkg.Imports() {
			if exports[imp.Path()] == "" {
				continue // the module's own
			}
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !types.IsInterface(tn.Type()) {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				iface := tn.Type().Underlying().(*types.Interface)
				for i := range iface.NumMethods() {
					callable(iface, iface.Method(i).Name())
				}
			}
		}
	}
	live := map[types.Object]bool{}
	mark := func(work []ast.Node) {
		for len(work) > 0 {
			node := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					fn = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						callable(recv.Type().Underlying().(*types.Interface), fn.Name())
					}
					obj = fn
				}
				if decl, ok := declared[obj]; ok && !live[obj] {
					live[obj] = true
					work = append(work, decl)
				}
				return true
			})
		}
	}
	// settle marks what work reaches, then the methods of live types that
	// implement a callable interface method, until nothing more is live.
	settle := func(work []ast.Node) {
		for len(work) > 0 {
			mark(work)
			work = work[:0]
			for obj, decl := range declared {
				typ := receiver(obj)
				if typ == nil || live[obj] || !live[typ.Obj()] {
					continue
				}
				for _, iface := range called[obj.Name()] {
					if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
						live[obj] = true
						work = append(work, decl)
						break
					}
				}
			}
		}
	}
	settle(roots)
	var kept []ast.Node
	byName := map[string]types.Object{}
	for obj := range declared {
		byName[symbolName(obj)] = obj
	}
	for name := range testOnlyAllowed {
		obj, ok := byName[name]
		switch {
		case !ok:
			t.Errorf("testOnlyAllowed names %s, which no longer exists", name)
		case live[obj]:
			t.Errorf("%s is reachable now: drop it from testOnlyAllowed", name)
		default:
			kept = append(kept, declared[obj])
		}
	}
	settle(kept)
	var dead []string
	for name, obj := range byName {
		_, allowed := testOnlyAllowed[name]
		_, skipped := orphanAllowed[obj.Pkg().Path()]
		if !live[obj] && !allowed && !skipped {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is referenced by no non-test code: delete it, or add it to testOnlyAllowed with a reason", name)
	}
}

// symbolName names a package-level object or method of internal/ as
// testOnlyAllowed does: "pkg.Name" or "pkg.Type.Method".
func symbolName(obj types.Object) string {
	name := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/") + "."
	if typ := receiver(obj); typ != nil {
		name += typ.Obj().Name() + "."
	}
	return name + obj.Name()
}

// receiver returns the named type obj is a method of, or nil.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	typ := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestTapeReadsAreOracles: every estimate the repo reports is read through
// the compiled engine (internal/estimator/infer). The tape forward trains,
// and its one exported read, estimator.Model.PredictVectors, is the oracle
// the engine is held to bit for bit — so no non-test file outside
// internal/estimator and bench/ selects it. Syntax only, like
// TestNoTestOnlySymbols: any selector of that name counts.
func TestTapeReadsAreOracles(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := entry.Name(); {
		case entry.IsDir() && path != "." && (name[0] == '.' || name == "testdata" ||
			path == "bench" || filepath.ToSlash(path) == "internal/estimator"):
			return filepath.SkipDir
		case entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "PredictVectors" {
				t.Errorf("%s reads a model through the tape oracle: read it through its compiled infer.Engine", fset.Position(sel.Sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
