//go:build !race

package experiments

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// sweepSeeds are the quick seeds the sweep runs, and holdAt how many of them
// each claim must hold at.
const sweepSeeds, holdAt = 8, 7

// TestReproductionSeeds runs the quick experiment suite at seeds 1–8 and
// checks every claim at each (reproductionClaims, the bounds
// TestReproductionShape holds seed 1 to): it prints a claim × seed table and
// fails when a claim holds at fewer than 7 of the 8 seeds. One result at
// one seed is not a reproduction. It trains eight quick suites (a few
// seconds each), so it runs only when -run names it (make seeds, and CI's
// own step), never under -short or the race detector.
func TestReproductionSeeds(t *testing.T) {
	if testing.Short() || !strings.Contains(flag.Lookup("test.run").Value.String(), "TestReproductionSeeds") {
		t.Skip("trains the quick experiment suite at eight seeds: run it by name (make seeds)")
	}
	var names []string
	held := map[string][]bool{}
	for seed := int64(1); seed <= sweepSeeds; seed++ {
		c := reproductionClaims(quickResults(t, seed))
		if names == nil {
			names = c.names
		}
		for _, name := range c.names {
			held[name] = append(held[name], len(c.failures[name]) == 0)
			for _, f := range c.failures[name] {
				t.Logf("seed %d: %s", seed, f)
			}
		}
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-58s", "claim")
	for seed := 1; seed <= sweepSeeds; seed++ {
		fmt.Fprintf(&table, " %d", seed)
	}
	fmt.Fprintln(&table, "  holds")
	for _, name := range names {
		n := 0
		fmt.Fprintf(&table, "%-58s", name)
		for _, ok := range held[name] {
			mark := "✗"
			if ok {
				mark, n = "✓", n+1
			}
			fmt.Fprintf(&table, " %s", mark)
		}
		fmt.Fprintf(&table, "  %d/%d\n", n, sweepSeeds)
		if n < holdAt {
			t.Errorf("%s holds at %d of %d quick seeds, want ≥ %d", name, n, sweepSeeds, holdAt)
		}
	}
	t.Logf("claims at quick seeds 1–%d:\n%s", sweepSeeds, table.String())
}
