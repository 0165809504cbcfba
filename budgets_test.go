package deeprest_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tree's budgets, each set at the size it had when this test landed or
// was last lowered. A change that needs more raises the constant and names
// the reason in its CHANGES.md entry; one that frees room may lower it.
const (
	goLinesBudget          = 22597 // non-test Go lines outside bench/
	designBytesBudget      = 51366
	changesBytesBudget     = 56062
	readmeBytesBudget      = 36037
	experimentsBytesBudget = 25594
)

// TestBudgets holds the tree to the budgets above: the lines of non-test Go
// outside bench/ (the repo benchmark is its own module), counted as newlines,
// and the byte sizes of the four documents. `make loc` runs it with -v to
// print each count beside its budget; this is the one counting rule.
func TestBudgets(t *testing.T) {
	lines := 0
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
		data, err := os.ReadFile(path)
		lines += bytes.Count(data, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	size := func(path string) int {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(info.Size())
	}
	for _, b := range []struct {
		what         string
		have, budget int
	}{
		{"non-test Go lines outside bench/", lines, goLinesBudget},
		{"DESIGN.md bytes", size("DESIGN.md"), designBytesBudget},
		{"CHANGES.md bytes", size("CHANGES.md"), changesBytesBudget},
		{"README.md bytes", size("README.md"), readmeBytesBudget},
		{"EXPERIMENTS.md bytes", size("EXPERIMENTS.md"), experimentsBytesBudget},
	} {
		t.Logf("%-33s %7d   budget %7d", b.what, b.have, b.budget)
		if b.have > b.budget {
			t.Errorf("%s: %d, over the budget of %d — cut, or raise the constant and give the reason in CHANGES.md", b.what, b.have, b.budget)
		}
	}
}
