package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Property-based tests: rather than pinning outputs for hand-built traces,
// these generate random trace forests from a seeded source and check
// invariants that must hold for every input the extractor can see.

// randomTrace builds a random span tree: bounded depth and fan-out, with
// component/operation names drawn from small pools so paths collide across
// traces (exercising the shared-prefix bookkeeping).
func randomTrace(rng *rand.Rand) trace.Trace {
	comps := []string{"Gateway", "Service", "Cache", "DB"}
	ops := []string{"read", "write", "scan"}
	api := fmt.Sprintf("/api%d", rng.Intn(3))
	root := trace.NewSpan(comps[rng.Intn(len(comps))], ops[rng.Intn(len(ops))])
	grow(rng, root, 0)
	return trace.Trace{API: api, Root: root}
}

// grow adds random children with pairwise-distinct (component, operation)
// labels. Distinct siblings keep root-to-node path keys unique within a
// trace, which is what makes the child≤parent count invariant hold exactly
// (two identical siblings would share one path key and count double).
func grow(rng *rand.Rand, s *trace.Span, depth int) {
	if depth >= 3 {
		return
	}
	comps := []string{"Gateway", "Service", "Cache", "DB"}
	ops := []string{"read", "write", "scan"}
	used := map[string]bool{}
	for i := 0; i < rng.Intn(3); i++ {
		c, o := comps[rng.Intn(len(comps))], ops[rng.Intn(len(ops))]
		if used[c+":"+o] {
			continue
		}
		used[c+":"+o] = true
		child := s.Child(c, o)
		grow(rng, child, depth+1)
	}
}

func randomWindow(rng *rand.Rand, maxBatches int) []trace.Batch {
	w := make([]trace.Batch, rng.Intn(maxBatches+1))
	for i := range w {
		w[i] = trace.Batch{Trace: randomTrace(rng), Count: 1 + rng.Intn(20)}
	}
	return w
}

// TestPropertyChildCountNeverExceedsParent: a span is only reached through
// its parent, so for every feature path "P→c" the extracted count of the
// child path can never exceed the count of its prefix P. This is the
// structural invariant that makes path counts meaningful as triggers.
func TestPropertyChildCountNeverExceedsParent(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for iter := 0; iter < 200; iter++ {
		w := randomWindow(rng, 6)
		s := NewSpace([][]trace.Batch{w})
		v := s.Extract(w)
		for i, key := range s.Paths() {
			cut := strings.LastIndex(key, "→")
			if cut < 0 {
				continue // root path, no parent
			}
			parent := key[:cut]
			pi, ok := s.index[parent]
			if !ok {
				t.Fatalf("iter %d: child path %q known but parent %q is not", iter, key, parent)
			}
			if v.Counts[i] > v.Counts[pi] {
				t.Fatalf("iter %d: child %q count %v exceeds parent %q count %v",
					iter, key, v.Counts[i], parent, v.Counts[pi])
			}
		}
	}
}

// TestPropertyPermutationInvariance: the feature vector of a window is a
// bag-of-paths — reordering the batches within the window must not change
// any count, nor the Unknown tally.
func TestPropertyPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for iter := 0; iter < 200; iter++ {
		w := randomWindow(rng, 8)
		// Learn the space from a different random forest so some of w's
		// paths land in Unknown too.
		space := NewSpace([][]trace.Batch{randomWindow(rng, 8)})
		want := space.Extract(w)

		shuffled := make([]trace.Batch, len(w))
		copy(shuffled, w)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := space.Extract(shuffled)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: extraction is order-sensitive:\n%+v\nvs\n%+v", iter, want, got)
		}
	}
}

// TestPropertyEmptyWindowIsZero: an empty window (and a window of traces
// with nil roots) must extract to all-zero counts with zero Unknown,
// whatever the space.
func TestPropertyEmptyWindowIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for iter := 0; iter < 50; iter++ {
		space := NewSpace([][]trace.Batch{randomWindow(rng, 8)})
		for _, w := range [][]trace.Batch{nil, {}, {{Trace: trace.Trace{API: "/x"}, Count: 5}}} {
			v := space.Extract(w)
			if v.Unknown != 0 {
				t.Fatalf("iter %d: empty window has Unknown = %v", iter, v.Unknown)
			}
			if len(v.Counts) != space.Dim() {
				t.Fatalf("iter %d: vector dim %d != space dim %d", iter, len(v.Counts), space.Dim())
			}
			for i, c := range v.Counts {
				if c != 0 {
					t.Fatalf("iter %d: empty window counted %v at %q", iter, c, space.Path(i))
				}
			}
		}
	}
}

// TestPropertySpaceOrderIndependentOfBatchOrder: the *set* of dimensions is
// permutation-invariant too (first-seen numbering may differ, but every
// path present in one ordering is present in the other).
func TestPropertySpaceOrderIndependentOfBatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 100; iter++ {
		w := randomWindow(rng, 8)
		shuffled := make([]trace.Batch, len(w))
		copy(shuffled, w)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		a := NewSpace([][]trace.Batch{w})
		b := NewSpace([][]trace.Batch{shuffled})
		if a.Dim() != b.Dim() {
			t.Fatalf("iter %d: dims differ: %d vs %d", iter, a.Dim(), b.Dim())
		}
		for _, p := range a.Paths() {
			if _, ok := b.index[p]; !ok {
				t.Fatalf("iter %d: path %q lost under permutation", iter, p)
			}
		}
	}
}
