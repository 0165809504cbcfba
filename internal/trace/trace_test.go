package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// sampleTrace builds the paper's Figure 3 /readTimeline trace.
func sampleTrace() Trace {
	root := NewSpan("FrontendNGINX", "readTimeline")
	utl := root.Child("UserTimelineService", "readTimeline")
	utl.Child("UserTimelineMongoDB", "find")
	ps := utl.Child("PostStorageService", "getPosts")
	ps.Child("PostStorageMongoDB", "find")
	return Trace{API: "/readTimeline", Root: root}
}

func TestSpanBasics(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Root.NumSpans(); got != 5 {
		t.Errorf("NumSpans = %d, want 5", got)
	}
	if got := tr.Root.ID(); got != "FrontendNGINX:readTimeline" {
		t.Errorf("ID = %q", got)
	}
}

func TestSpanCloneIndependence(t *testing.T) {
	tr := sampleTrace()
	cp := tr.Root.Clone()
	cp.Children[0].Operation = "mutated"
	if tr.Root.Children[0].Operation == "mutated" {
		t.Fatal("Clone must deep-copy")
	}
	if cp.NumSpans() != tr.Root.NumSpans() {
		t.Fatal("Clone must preserve structure")
	}
}

func TestWalkVisitsAllWithPaths(t *testing.T) {
	tr := sampleTrace()
	var paths []string
	tr.Root.Walk(func(_ *Span, path []string) {
		paths = append(paths, PathKey(path))
	})
	if len(paths) != 5 {
		t.Fatalf("Walk visited %d nodes, want 5", len(paths))
	}
	if paths[0] != "FrontendNGINX:readTimeline" {
		t.Errorf("first path = %q", paths[0])
	}
	want := "FrontendNGINX:readTimeline→UserTimelineService:readTimeline→PostStorageService:getPosts→PostStorageMongoDB:find"
	if paths[4] != want {
		t.Errorf("deep path = %q, want %q", paths[4], want)
	}
}

// TestPathVisits: a path visits a component when one of its span IDs is an
// operation of it, whatever the component's name holds — a ":" included.
func TestPathVisits(t *testing.T) {
	key := PathKey([]string{NewSpan("Gateway", "read").ID(), NewSpan("cache:6379", "get").ID()})
	for _, tc := range []struct {
		component string
		want      bool
	}{
		{"Gateway", true},
		{"cache:6379", true},
		{"cache:63", false},
		{"read", false},
		{"Gate", false},
		{"", false},
	} {
		if got := PathVisits(key, tc.component); got != tc.want {
			t.Errorf("PathVisits(%q, %q) = %v, want %v", key, tc.component, got, tc.want)
		}
	}
}

func TestWalkPathReuseSafety(t *testing.T) {
	// The contract says the path slice is reused; verify keys derived
	// inside the callback stay correct even so.
	tr := sampleTrace()
	seen := map[string]bool{}
	tr.Root.Walk(func(_ *Span, path []string) {
		seen[PathKey(path)] = true
	})
	if len(seen) != 5 {
		t.Fatalf("expected 5 distinct path keys, got %d", len(seen))
	}
}

func TestStringRendering(t *testing.T) {
	s := sampleTrace().Root.String()
	if !strings.Contains(s, "FrontendNGINX:readTimeline") || !strings.Contains(s, "PostStorageMongoDB:find") {
		t.Errorf("String() = %q", s)
	}
}

func TestTotalRequests(t *testing.T) {
	batches := []Batch{
		{Trace: sampleTrace(), Count: 3},
		{Trace: sampleTrace(), Count: 7},
	}
	if got := TotalRequests(batches); got != 10 {
		t.Errorf("TotalRequests = %d, want 10", got)
	}
}

func TestHasherDeterminismAndSalting(t *testing.T) {
	h1 := NewHasher("salt")
	h2 := NewHasher("salt")
	h3 := NewHasher("other")
	if h1.Hash("X") != h2.Hash("X") {
		t.Error("same salt must hash identically")
	}
	if h1.Hash("X") == h3.Hash("X") {
		t.Error("different salts must hash differently")
	}
	if h1.Hash("X") == h1.Hash("Y") {
		t.Error("different names must hash differently")
	}
}

func TestAnonymizePreservesStructure(t *testing.T) {
	h := NewHasher("s")
	tr := h.AnonymizeTrace(sampleTrace())
	if tr.Root.NumSpans() != 5 {
		t.Fatalf("anonymised NumSpans = %d", tr.Root.NumSpans())
	}
	if strings.Contains(tr.Root.Component, "NGINX") {
		t.Error("component name leaked through anonymisation")
	}
	if !strings.HasPrefix(tr.API, "h") {
		t.Errorf("API not hashed: %q", tr.API)
	}
	// Equal inputs map to equal tokens: the two MongoDB find operations
	// of different components must differ, but repeated anonymisation
	// must agree.
	tr2 := h.AnonymizeTrace(sampleTrace())
	if tr.Root.ID() != tr2.Root.ID() {
		t.Error("anonymisation must be deterministic")
	}
}

// Property: anonymisation is structure-preserving for arbitrary small trees.
func TestAnonymizeStructureProperty(t *testing.T) {
	h := NewHasher("p")
	f := func(names []string) bool {
		if len(names) == 0 {
			return true
		}
		root := NewSpan("root", "op")
		cur := root
		for i, n := range names {
			if len(n) > 20 {
				n = n[:20]
			}
			if i%2 == 0 {
				cur = cur.Child("C"+n, "op")
			} else {
				root.Child("D"+n, "op")
			}
		}
		anon := h.Anonymize(root)
		return anon.NumSpans() == root.NumSpans()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTopology(t *testing.T) {
	g := NewTopology()
	g.AddTrace(sampleTrace())
	g.AddBatch(Batch{Trace: sampleTrace(), Count: 5})
	if got := g.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if roots := g.Roots(); len(roots) != 1 || roots[0] != "FrontendNGINX:readTimeline" {
		t.Errorf("Roots = %v", roots)
	}
	if slices.Contains(g.Successors("UserTimelineService:readTimeline"), "PostStorageMongoDB:find") {
		// Direct edge exists only via PostStorageService.
		t.Error("unexpected transitive edge")
	}
	if !slices.Contains(g.Successors("PostStorageService:getPosts"), "PostStorageMongoDB:find") {
		t.Error("missing direct edge")
	}
	succ := g.Successors("UserTimelineService:readTimeline")
	if len(succ) != 2 {
		t.Errorf("Successors = %v", succ)
	}
	// A second API adds nodes.
	up := NewSpan("MediaNGINX", "uploadMedia")
	up.Child("MediaMongoDB", "store")
	g.AddTrace(Trace{API: "/uploadMedia", Root: up})
	if got := g.NumNodes(); got != 7 {
		t.Errorf("NumNodes after second API = %d, want 7", got)
	}
	if got := len(g.Roots()); got != 2 {
		t.Errorf("Roots = %d, want 2", got)
	}
	if got := len(g.Nodes()); got != 7 {
		t.Errorf("Nodes = %d", got)
	}
}

func TestTopologyNilRoot(t *testing.T) {
	g := NewTopology()
	g.AddTrace(Trace{API: "/x"})
	if g.NumNodes() != 0 {
		t.Error("nil-root trace must be ignored")
	}
}

func TestTopologyDOT(t *testing.T) {
	g := NewTopology()
	g.AddTrace(sampleTrace())
	dot := g.DOT("social")
	if !strings.Contains(dot, `digraph "social"`) {
		t.Errorf("DOT header missing: %s", dot)
	}
	if !strings.Contains(dot, `"FrontendNGINX:readTimeline" [shape=box]`) {
		t.Error("root not boxed")
	}
	if !strings.Contains(dot, `"PostStorageService:getPosts" -> "PostStorageMongoDB:find";`) {
		t.Error("edge missing")
	}
	if !strings.HasSuffix(dot, "}\n") {
		t.Error("DOT not terminated")
	}
}
