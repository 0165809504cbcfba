package deeprest_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameWhatExists holds README, DESIGN and EXPERIMENTS to the tree:
// every cmd/, internal/ or examples/ path they name exists, every deeprest_*
// metric is a string literal of non-test Go, every Test/Benchmark/Fuzz name
// is (or is a prefix of) a declared one, every `make target` is a Makefile
// target, every /v1/ route is registered by the service or the fleet, every
// back-ticked `pkg.Name` or `pkg.Type.Member` of a package of this module is
// declared there, and every back-ticked `-flag` is one the three binaries
// define (or a `go test` flag the docs use). Every citation of a DESIGN.md
// title or §N in those documents or a Go comment names a ## heading or a
// bold run-in title of DESIGN.md, and the service's package
// comment lists exactly the routes its routes() registers. A deletion that
// leaves its row in a table fails here, by name.
// (bench/README.md is outside: bench/ is frozen between benchmark issues.)
func TestDocsNameWhatExists(t *testing.T) {
	var goSrc, testSrc strings.Builder
	goFiles := map[string]string{}
	err := filepath.WalkDir(".", func(path string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := entry.Name(); {
		case entry.IsDir() && path != "." && name[0] == '.':
			return filepath.SkipDir
		case entry.IsDir() || !strings.HasSuffix(name, ".go"):
			return nil
		}
		data, err := os.ReadFile(path)
		goFiles[path] = string(data)
		if strings.HasSuffix(path, "_test.go") {
			testSrc.Write(data)
		} else {
			goSrc.Write(data)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	submatches := func(re, text string) (out []string) {
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			out = append(out, m[1])
		}
		return out
	}
	declaredTests := submatches(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`, testSrc.String())
	makeTargets := submatches(`(?m)^([a-z][\w-]*):`, read("Makefile"))
	serviceGo := read("internal/service/service.go")
	routes := submatches(`Handle(?:Func)?\("(?:[A-Z]+ )?(/v1/[^"]*)"`,
		serviceGo+read("internal/fleet/handler.go"))
	allSrc := goSrc.String() + testSrc.String()
	decls := moduleDecls(t)
	flags := []string{"race", "cpu"} // the go test flags the documents use
	for path, src := range goFiles {
		if strings.HasPrefix(path, filepath.Join("cmd", "deeprest")) || strings.HasPrefix(path, filepath.Join("cmd", "experiments")) {
			flags = append(flags, submatches(`\.(?:String|Int|Int64|Bool|Float64|Duration|Var)(?:Var)?\((?:&?[\w.]+, )?"([a-z][\w-]*)"`, src)...)
		}
	}
	titles := designTitles(read("DESIGN.md"))

	// routeExists matches a documented route against the registered ones
	// segment by segment: a {…} segment on either side matches anything, a
	// trailing * or ... in the document matches any continuation.
	routeExists := func(doc string) bool {
		want := strings.Split(strings.Trim(doc, "/"), "/")
		open := false
		if last := want[len(want)-1]; last == "*" || last == "..." {
			want, open = want[:len(want)-1], true
		}
		for _, route := range routes {
			have := strings.Split(strings.Trim(route, "/"), "/")
			if len(have) < len(want) || (len(have) > len(want) && !open) {
				continue
			}
			match := true
			for i, seg := range want {
				match = match && (seg == have[i] || strings.HasPrefix(seg, "{") || strings.HasPrefix(have[i], "{"))
			}
			if match {
				return true
			}
		}
		return false
	}

	var (
		pathRE   = regexp.MustCompile(`\b(?:cmd|internal|examples)/[\w./*-]+`)
		metricRE = regexp.MustCompile(`deeprest_[a-z0-9_]+`)
		testRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
		routeRE  = regexp.MustCompile(`/v1/[\w/{}*-]*(?:\.\.\.)?`)
		tenantRE = regexp.MustCompile(`^/v1/t/[^/]+(/v1/.*)$`)
		identRE  = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
		flagRE   = regexp.MustCompile(`^-([a-z][\w-]*)`)
		fileRE   = regexp.MustCompile(`^\.(?:go|s|md|json|jsonl)\b`)
	)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text := read(doc)
		for _, path := range pathRE.FindAllString(text, -1) {
			path = strings.TrimRight(path, "./") // a sentence's full stop, a ./internal/... pattern
			if found, _ := filepath.Glob(path); len(found) > 0 {
				continue
			}
			// internal/obs.Lint: a symbol of the package.
			if dot := strings.LastIndex(path, "."); dot > strings.LastIndex(path, "/") {
				if _, err := os.Stat(path[:dot]); err == nil {
					continue
				}
			}
			t.Errorf("%s names the path %s, which does not exist", doc, path)
		}
		for _, at := range metricRE.FindAllStringIndex(text, -1) {
			name, rest := text[at[0]:at[1]], text[at[1]:]
			if strings.HasSuffix(name, "_") || strings.HasPrefix(rest, "*") || strings.HasPrefix(rest, "…") {
				continue // a family of metrics by its prefix
			}
			if !strings.Contains(goSrc.String(), `"`+name+`"`) {
				t.Errorf("%s names the metric %s, which no non-test Go file registers", doc, name)
			}
		}
		for _, name := range testRE.FindAllString(text, -1) {
			declared := false
			for _, fn := range declaredTests {
				declared = declared || strings.HasPrefix(fn, name)
			}
			if !declared {
				t.Errorf("%s names %s, which no _test.go file declares", doc, name)
			}
		}
		for _, target := range submatches("`make ([a-z][\\w-]*)", text) {
			if !slices.Contains(makeTargets, target) {
				t.Errorf("%s names `make %s`, which is not a Makefile target", doc, target)
			}
		}
		for _, route := range routeRE.FindAllString(text, -1) {
			// /v1/t/<tenant>/v1/x is the tenant's /v1/x; /v1/t/<tenant>/... its whole API.
			if inner := tenantRE.FindStringSubmatch(route); inner != nil {
				route = inner[1]
			}
			if !routeExists(route) {
				t.Errorf("%s names the route %s, which neither service.routes nor fleet.Handler registers", doc, route)
			}
		}
		for _, span := range codeSpans(text) {
			for _, at := range identRE.FindAllStringSubmatchIndex(span, -1) {
				pkg, name := span[at[2]:at[3]], span[at[4]:at[5]]
				d, ok := decls[pkg]
				if !ok || fileRE.MatchString(span[at[3]:]) {
					continue // not a package of this module (math.Exp), or a file name
				}
				if !d.names[name] && !strings.Contains(allSrc, `"`+pkg+"."+name) {
					// (a span or a bench metric is named by a string the Go spells)
					t.Errorf("%s names `%s.%s`, which package %s does not declare", doc, pkg, name, pkg)
				} else if at[6] >= 0 && d.members[name] != nil && !d.members[name][span[at[6]:at[7]]] {
					t.Errorf("%s names `%s.%s.%s`, which is neither a field nor a method of %s.%s", doc, pkg, name, span[at[6]:at[7]], pkg, name)
				}
			}
			if m := flagRE.FindStringSubmatch(span); m != nil && !slices.Contains(flags, m[1]) {
				t.Errorf("%s names the flag -%s, which neither deeprestd, deeprest nor experiments defines", doc, m[1])
			}
		}
	}

	// DESIGN references, in the documents and in Go comments (a title may
	// wrap across comment lines).
	var (
		refRE     = regexp.MustCompile(`DESIGN(?:\.md)? (?:"([^"]+)"|§(\d+))`)
		commentRE = regexp.MustCompile(`\n\s*// ?`)
		spaceRE   = regexp.MustCompile(`\s+`)
	)
	refs := map[string]string{"README.md": read("README.md"), "EXPERIMENTS.md": read("EXPERIMENTS.md")}
	for path, src := range goFiles {
		refs[path] = commentRE.ReplaceAllString(src, " ")
	}
	for where, text := range refs {
		for _, m := range refRE.FindAllStringSubmatch(spaceRE.ReplaceAllString(text, " "), -1) {
			ref := m[1]
			if ref == "" {
				ref = "§" + m[2]
			}
			if !slices.ContainsFunc(titles, func(title string) bool { return strings.HasPrefix(title, ref) }) {
				t.Errorf("%s cites DESIGN.md %q, which is neither a ## heading nor a bold run-in title there", where, ref)
			}
		}
	}

	// The service's package comment lists its API; routes() registers it.
	listed := regexp.MustCompile(`(?m)^//\t([A-Z]+) +(/\S+)`).FindAllStringSubmatch(serviceGo[:strings.Index(serviceGo, "\npackage service")], -1)
	body := serviceGo[strings.Index(serviceGo, "func (s *Server) routes()"):]
	registered := regexp.MustCompile(`Handle(?:Func)?\("([A-Z]+) ([^"]+)"`).FindAllStringSubmatch(body[:strings.Index(body, "\n}\n")], -1)
	pairs := func(ms [][]string) (out []string) {
		for _, m := range ms {
			out = append(out, m[1]+" "+m[2])
		}
		return out
	}
	for _, route := range pairs(registered) {
		if !slices.Contains(pairs(listed), route) {
			t.Errorf("service.routes registers %s, which the internal/service package comment does not list", route)
		}
	}
	for _, route := range pairs(listed) {
		if !slices.Contains(pairs(registered), route) {
			t.Errorf("the internal/service package comment lists %s, which service.routes does not register", route)
		}
	}
}

// codeSpans returns the back-ticked spans of a markdown text, pairing
// backticks in order, with fenced blocks left out.
func codeSpans(text string) []string {
	text = regexp.MustCompile("(?ms)^```.*?^```").ReplaceAllString(text, "")
	parts := strings.Split(text, "`")
	var spans []string
	for i := 1; i < len(parts); i += 2 {
		spans = append(spans, parts[i])
	}
	return spans
}

// designTitles returns DESIGN.md's ## headings, each also as §N when it is
// numbered, and its bold run-in titles.
func designTitles(design string) (titles []string) {
	for _, m := range regexp.MustCompile(`(?m)^## (?:(\d+)\. )?(.+)$`).FindAllStringSubmatch(design, -1) {
		titles = append(titles, m[2])
		if m[1] != "" {
			titles = append(titles, "§"+m[1])
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^(?:- )?\*\*([^*]+)\*\*`).FindAllStringSubmatch(design, -1) {
		titles = append(titles, m[1])
	}
	return titles
}

// pkgDecls is what one package of the module declares at top level, and
// the fields and methods of each of its types.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

// moduleDecls parses the non-test Go of this module (bench/ is a module of
// its own) and returns its declarations by package name; the root package
// is deeprest.
func moduleDecls(t *testing.T) map[string]pkgDecls {
	decls := map[string]pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := entry.Name(); {
		case entry.IsDir() && path != "." && (name[0] == '.' || path == "bench"):
			return filepath.SkipDir
		case entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || file.Name.Name == "main" {
			return err
		}
		d, ok := decls[file.Name.Name]
		if !ok {
			d = pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			decls[file.Name.Name] = d
		}
		member := func(typ, name string) {
			d.names[name] = true // a method or field, named on its own
			if d.members[typ] == nil {
				d.members[typ] = map[string]bool{}
			}
			d.members[typ][name] = true
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.names[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if generic, ok := recv.(*ast.IndexExpr); ok {
					recv = generic.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							d.names[id.Name] = true
						}
					case *ast.TypeSpec:
						d.names[spec.Name.Name] = true
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, field := range fields {
							for _, id := range field.Names {
								member(spec.Name.Name, id.Name)
							}
							if len(field.Names) == 0 { // embedded: its name is the type's
								typ := field.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									member(spec.Name.Name, id.Name)
								}
							}
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
	return decls
}
