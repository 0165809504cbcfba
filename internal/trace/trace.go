// Package trace models distributed traces for API-driven microservices.
//
// It mirrors the data model produced by off-the-shelf tracing systems such
// as Jaeger: every API request handled by an application is recorded as a
// Trace, a tree of Spans where each Span names the (component, operation)
// pair that performed one unit of work. DeepRest consumes only this
// execution topology — never payloads or logs — which is what makes it
// application-independent and privacy-preserving.
package trace

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Span is one operation performed by one component while serving an API
// request. Spans form a tree: the entry component creates the root span and
// every downstream invocation spawns a child.
type Span struct {
	// Component is the name of the microservice component that executed
	// the operation (e.g. "PostStorageService").
	Component string
	// Operation is the name of the operation within the component
	// (e.g. "findPosts").
	Operation string
	// Children are the spans spawned by this span, in invocation order.
	Children []*Span
}

// NewSpan returns a leaf span for the given component and operation.
func NewSpan(component, operation string) *Span {
	return &Span{Component: component, Operation: operation}
}

// Child appends a new child span and returns it, enabling fluent
// construction of span trees in tests and examples.
func (s *Span) Child(component, operation string) *Span {
	c := NewSpan(component, operation)
	s.Children = append(s.Children, c)
	return c
}

// ID returns the node identity used by DeepRest's execution topology graph:
// the (component, operation) pair rendered as a single token.
func (s *Span) ID() string {
	return s.Component + ":" + s.Operation
}

// NumSpans returns the total number of spans in the tree rooted at s.
func (s *Span) NumSpans() int {
	n := 1
	for _, c := range s.Children {
		n += c.NumSpans()
	}
	return n
}

// Clone returns a deep copy of the span tree rooted at s.
func (s *Span) Clone() *Span {
	cp := &Span{Component: s.Component, Operation: s.Operation}
	if len(s.Children) > 0 {
		cp.Children = make([]*Span, len(s.Children))
		for i, c := range s.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Walk visits every span in the tree rooted at s in depth-first preorder,
// calling fn with the span and the path of span IDs from the root up to and
// including the span itself. The path slice is reused between calls; copy it
// if it must be retained.
func (s *Span) Walk(fn func(span *Span, path []string)) {
	walk(s, nil, fn)
}

func walk(s *Span, prefix []string, fn func(*Span, []string)) {
	prefix = append(prefix, s.ID())
	fn(s, prefix)
	for _, c := range s.Children {
		walk(c, prefix, fn)
	}
}

// String renders the span tree in the compact arrow notation used throughout
// the DeepRest paper, e.g.
// "Root → MediaFrontend:uploadMedia → MediaMongoDB:store".
func (s *Span) String() string {
	var b strings.Builder
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		if depth > 0 {
			b.WriteString("\n")
			b.WriteString(strings.Repeat("  ", depth))
		}
		b.WriteString(sp.ID())
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
	return b.String()
}

// Trace is one recorded API request: the API endpoint that received it and
// the tree of spans the application executed to serve it.
type Trace struct {
	// API is the user-facing endpoint that originated the request,
	// e.g. "/composePost".
	API string
	// Root is the root span created by the entry component.
	Root *Span
}

// Batch is a run-length-encoded group of identical traces observed within
// one scrape window. Interactive applications serve thousands of requests
// per window, most of which share the exact same invocation path; batching
// keeps the telemetry volume proportional to the number of distinct paths
// rather than the number of requests.
type Batch struct {
	// Trace is the shared shape of every request in the batch.
	Trace Trace
	// Count is how many requests in the window followed this shape.
	Count int
}

// TotalRequests sums the request counts across a window's batches.
func TotalRequests(batches []Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Count
	}
	return n
}

// PathKey renders a root-to-node path (a sequence of span IDs) as the
// canonical string key used by the feature extractor and the topology graph.
func PathKey(ids []string) string {
	return strings.Join(ids, "→")
}

// Hasher anonymises component and operation names before they are ingested
// by DeepRest, as required by the paper's privacy-preserving design: when
// DeepRest runs as a shared service, the application owner should not leak
// application semantics.
type Hasher struct {
	salt string
}

// NewHasher returns a Hasher with the given salt. An empty salt is valid and
// yields deterministic hashes, which is convenient for reproducible tests.
func NewHasher(salt string) *Hasher {
	return &Hasher{salt: salt}
}

// Hash returns a stable, opaque token for name.
func (h *Hasher) Hash(name string) string {
	f := fnv.New64a()
	f.Write([]byte(h.salt))
	f.Write([]byte(name))
	return fmt.Sprintf("h%016x", f.Sum64())
}

// Anonymize returns a deep copy of the span tree with every component and
// operation name replaced by its hash.
func (h *Hasher) Anonymize(s *Span) *Span {
	cp := &Span{Component: h.Hash(s.Component), Operation: h.Hash(s.Operation)}
	for _, c := range s.Children {
		cp.Children = append(cp.Children, h.Anonymize(c))
	}
	return cp
}

// AnonymizeTrace anonymises a trace, hashing both the span tree and the API
// endpoint name.
func (h *Hasher) AnonymizeTrace(t Trace) Trace {
	return Trace{API: h.Hash(t.API), Root: h.Anonymize(t.Root)}
}

// Topology is the execution topology graph of an application: the set of
// (component, operation) nodes observed in traces and the invocation edges
// between them. DeepRest builds it during the application learning phase
// (Figure 5 in the paper).
type Topology struct {
	nodes map[string]bool
	edges map[string]map[string]bool
	roots map[string]bool
}

// NewTopology returns an empty execution topology graph.
func NewTopology() *Topology {
	return &Topology{
		nodes: make(map[string]bool),
		edges: make(map[string]map[string]bool),
		roots: make(map[string]bool),
	}
}

// AddTrace records the nodes and edges of one trace into the graph.
func (g *Topology) AddTrace(t Trace) {
	if t.Root == nil {
		return
	}
	g.roots[t.Root.ID()] = true
	var rec func(s *Span)
	rec = func(s *Span) {
		g.nodes[s.ID()] = true
		for _, c := range s.Children {
			if g.edges[s.ID()] == nil {
				g.edges[s.ID()] = make(map[string]bool)
			}
			g.edges[s.ID()][c.ID()] = true
			rec(c)
		}
	}
	rec(t.Root)
}

// AddBatch records a batch; the count is irrelevant for topology purposes.
func (g *Topology) AddBatch(b Batch) { g.AddTrace(b.Trace) }

// NumNodes returns the number of distinct (component, operation) nodes.
func (g *Topology) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of distinct invocation edges.
func (g *Topology) NumEdges() int {
	n := 0
	for _, m := range g.edges {
		n += len(m)
	}
	return n
}

// Nodes returns the node IDs in sorted order.
func (g *Topology) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Roots returns the entry-point node IDs in sorted order.
func (g *Topology) Roots() []string {
	out := make([]string, 0, len(g.roots))
	for id := range g.roots {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Successors returns the sorted successor node IDs of the given node.
func (g *Topology) Successors(id string) []string {
	m := g.edges[id]
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// DOT renders the execution topology graph in Graphviz DOT format — the
// visual of the paper's Figure 5. Entry-point nodes are drawn as boxes.
func (g *Topology) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=ellipse];\n", name)
	for _, r := range g.Roots() {
		fmt.Fprintf(&b, "  %q [shape=box];\n", r)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Successors(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
