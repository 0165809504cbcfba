package deeprest_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
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
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}

// testOnlyAllowed lists the package-level symbols of internal/ that no
// non-test code references, each with the reason it is kept anyway.
var testOnlyAllowed = map[string]string{
	"obs.Lint":                 "oracle: the exposition grammar six packages' tests hold every /metrics scrape to",
	"sim.Fingerprint":          "oracle: bit-identity of two runs as one string compare (the sim and topo goldens)",
	"app.Toy":                  "fixture: the three-component application every package's tests train on",
	"sim.WithMeasurementNoise": "determinism knob: exactness tests switch scrape noise off",
	"sim.WithQueueFactor":      "determinism knob: accounting tests switch queuing inflation off, the queuing test sets it",
	"faults.MustParse":         "test helper: Parse for constant specs, shared by three packages' tests",
}

// TestNoTestOnlySymbols extends TestNoOrphanPackages from packages to
// symbols: every package-level func, type, var and const a non-test file
// under internal/ declares is referenced, transitively, from non-test code
// of a binary, an example, the public deeprest package or the bench/ module.
// A symbol only tests reach is a feature nothing shipped can call; it is
// deleted, or allowed above with a reason (what an allowed symbol references
// is then live too). Syntax only: a pkg.Name selector resolves through the
// file's imports, a bare identifier within its own package, and a reference
// counts only if the top-level declaration it sits in is itself live.
// Methods are live with their receiver's type; packages in orphanAllowed are
// skipped.
func TestNoTestOnlySymbols(t *testing.T) {
	type symbol struct{ pkg, name string }
	type decl struct {
		pkg     string
		imports map[string]string // local name -> import path, of the declaring file
		node    ast.Node
	}
	var roots []decl
	declared := map[symbol][]decl{} // a type's methods are listed under the type
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := entry.Name(); {
		case entry.IsDir() && path != "." && (name[0] == '.' || name == "testdata"):
			return filepath.SkipDir
		case entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("repro/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		shipped := !strings.HasPrefix(pkg, "repro/internal/")
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		add := func(name string, node ast.Node) {
			d := decl{pkg, imports, node}
			if shipped || name == "init" || name == "_" {
				roots = append(roots, d)
			}
			declared[symbol{pkg, name}] = append(declared[symbol{pkg, name}], d)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if generic, ok := typ.(*ast.IndexExpr); ok {
						typ = generic.X
					}
					name = typ.(*ast.Ident)
				}
				add(name.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name.Name, spec)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[symbol]bool{}
	mark := func(work []decl) {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			refer := func(pkg, name string) {
				if ref := (symbol{pkg, name}); !live[ref] {
					live[ref] = true
					work = append(work, declared[ref]...)
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr: // pkg.Name, or a field or method of something
					if x, ok := n.X.(*ast.Ident); ok && d.imports[x.Name] != "" {
						refer(d.imports[x.Name], n.Sel.Name)
					} else {
						ast.Inspect(n.X, visit)
					}
					return false
				case *ast.Ident:
					refer(d.pkg, n.Name)
				}
				return true
			}
			ast.Inspect(d.node, visit)
		}
	}
	mark(roots)
	var kept []decl
	for name := range testOnlyAllowed {
		dot := strings.LastIndex(name, ".")
		sym := symbol{"repro/internal/" + name[:max(dot, 0)], name[dot+1:]}
		switch {
		case declared[sym] == nil:
			t.Errorf("testOnlyAllowed names %s, which no longer exists", name)
		case live[sym]:
			t.Errorf("%s is reachable now: drop it from testOnlyAllowed", name)
		}
		kept = append(kept, declared[sym]...)
	}
	mark(kept)
	var dead []string
	for sym := range declared {
		name := strings.TrimPrefix(sym.pkg, "repro/internal/") + "." + sym.name
		_, allowed := testOnlyAllowed[name]
		_, skipped := orphanAllowed[sym.pkg]
		if !live[sym] && !allowed && !skipped && strings.HasPrefix(sym.pkg, "repro/internal/") {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is referenced by no non-test code: delete it, or add it to testOnlyAllowed with a reason", name)
	}
}

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
