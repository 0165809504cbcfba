package deeprest_test

import (
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
// target, and every /v1/ route is registered by the service or the fleet. A
// deletion that leaves its row in a table fails here, by name.
// (bench/README.md is outside: bench/ is frozen between benchmark issues.)
func TestDocsNameWhatExists(t *testing.T) {
	var goSrc, testSrc strings.Builder
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
	routes := submatches(`Handle(?:Func)?\("(?:[A-Z]+ )?(/v1/[^"]*)"`,
		read("internal/service/service.go")+read("internal/fleet/handler.go"))

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
	}
}
