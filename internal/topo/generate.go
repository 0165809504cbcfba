package topo

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/app"
)

// Config sizes a generated topology. The zero value of every field except
// Components is usable; Generate applies the documented defaults.
type Config struct {
	// Seed drives every random choice. The same (Seed, size knobs) yields
	// a byte-identical document on every platform.
	Seed int64
	// Components is the total component budget across all tiers
	// (clamped to a minimum of 5: one entry, one logic, one cache, two
	// stores is the smallest meaningful topology).
	Components int
	// APIs is the endpoint count; 0 derives max(3, Components/8).
	APIs int
	// MaxDepth bounds the logic-tier call depth below the entry node;
	// 0 means 4.
	MaxDepth int
	// MaxFanout bounds the children of one logic node; 0 means 3.
	MaxFanout int
}

// withDefaults clamps and fills the config.
func (c Config) withDefaults() Config {
	if c.Components < 5 {
		c.Components = 5
	}
	if c.APIs <= 0 {
		c.APIs = c.Components / 8
		if c.APIs < 3 {
			c.APIs = 3
		}
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 3
	}
	return c
}

// maxGenSize bounds components and apis in a gen: argument. The argument is
// outside input (POST /v1/tenants passes it through), and Generate's work
// and memory grow with both; the largest topology the repo runs has 300
// components.
const maxGenSize = 1000

// ParseGenArg decodes the flag form "seed=7,components=200[,apis=N]
// [,depth=N][,fanout=N]" — the text after "gen:" in -app arguments.
func ParseGenArg(s string) (Config, error) {
	var cfg Config
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("topo: gen parameter %q is not key=value", kv)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("topo: bad gen value %q for %q", val, key)
		}
		key = strings.TrimSpace(key)
		if (key == "components" || key == "apis") && n > maxGenSize {
			return cfg, fmt.Errorf("topo: gen %s=%d is over the limit of %d", key, n, maxGenSize)
		}
		switch key {
		case "seed":
			cfg.Seed = n
		case "components":
			cfg.Components = int(n)
		case "apis":
			cfg.APIs = int(n)
		case "depth":
			cfg.MaxDepth = int(n)
		case "fanout":
			cfg.MaxFanout = int(n)
		default:
			return cfg, fmt.Errorf("topo: unknown gen parameter %q (want seed, components, apis, depth, fanout)", key)
		}
	}
	if cfg.Components == 0 {
		return cfg, fmt.Errorf("topo: gen requires components=N")
	}
	return cfg, nil
}

// rng is a splitmix64 stream. All draws are integer arithmetic plus one
// IEEE-exact division, so sequences are bit-identical across platforms —
// the same determinism discipline as internal/faults, sequenced rather
// than coordinate-hashed because generation order is itself fixed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float draws a uniform variate in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn draws a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// in draws a uniform variate in [lo, hi).
func (r *rng) in(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// round keeps p decimal digits — generated specs stay human-readable.
func round(v float64, p int) float64 {
	k := math.Pow(10, float64(p))
	return math.Round(v*k) / k
}

// tiers is the component layout of one generated topology.
type tiers struct {
	entries []string // API gateways / front-end webservers
	logic   []string // stateless business-logic services
	caches  []string // Redis/Memcached-style cache components
	stores  []string // stateful database components
}

// serviceStems name the business domains generated services belong to.
var serviceStems = []string{
	"Auth", "User", "Catalog", "Order", "Search", "Feed", "Media",
	"Billing", "Notify", "Session", "Profile", "Inventory", "Rating",
	"Geo", "Text", "Upload", "Index", "Graph", "Queue", "Stream",
	"Ledger", "Recommend", "Social", "Review", "Checkout", "Shipping",
}

var apiVerbs = []string{"get", "list", "compose", "update", "search", "submit", "sync", "browse"}

func stem(i int) string { return serviceStems[i%len(serviceStems)] }

// Generate emits a production-like topology for the config: components in
// tiered layers, one logic subtree per API with irregular fan-out, shared
// hub services, and power-law-shared backing stores. See the package
// comment for the model; the output always passes Document.Validate.
func Generate(cfg Config) *Document {
	cfg = cfg.withDefaults()
	r := &rng{s: uint64(cfg.Seed)}
	d := &Document{Name: fmt.Sprintf("gen-%d-c%d", cfg.Seed, cfg.Components)}

	t := layout(cfg)
	components(d, r, t)

	// Partition the logic tier into one disjoint subtree per API — the
	// service-ownership boundaries of a real organisation — after an
	// rng shuffle so the partition differs per seed.
	logicIdx := make([]int, len(t.logic))
	for i := range logicIdx {
		logicIdx[i] = i
	}
	for i := len(logicIdx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		logicIdx[i], logicIdx[j] = logicIdx[j], logicIdx[i]
	}
	chunks := partition(r, logicIdx, cfg.APIs)

	// Hub services (auth/session-style) are called from many APIs on top
	// of whatever subtree owns them.
	nHubs := len(t.logic) / 12
	if nHubs < 1 {
		nHubs = 1
	}
	if nHubs > 5 {
		nHubs = 5
	}
	hubs := t.logic[:nHubs]

	leafSeq := 0 // global leaf counter driving store/cache coverage
	for i := 0; i < cfg.APIs; i++ {
		d.APIs = append(d.APIs, genAPI(r, cfg, t, chunks[i%len(chunks)], hubs, i, &leafSeq))
	}
	return d
}

// layout splits the component budget into tiers.
func layout(cfg Config) tiers {
	c := cfg.Components
	nEntry := 1 + c/40
	if nEntry > 8 {
		nEntry = 8
	}
	nStore := c * 22 / 100
	if nStore < 2 {
		nStore = 2
	}
	nCache := c * 18 / 100
	if nCache < 1 {
		nCache = 1
	}
	nLogic := c - nEntry - nStore - nCache
	for nLogic < 1 { // tiny budgets: shrink the data tiers first
		if nStore > 2 {
			nStore--
		} else if nCache > 1 {
			nCache--
		} else {
			nEntry--
		}
		nLogic = c - nEntry - nStore - nCache
	}
	var t tiers
	for i := 0; i < nEntry; i++ {
		t.entries = append(t.entries, fmt.Sprintf("Gateway%02d", i))
	}
	for i := 0; i < nLogic; i++ {
		t.logic = append(t.logic, fmt.Sprintf("%sService%03d", stem(i), i))
	}
	for i := 0; i < nCache; i++ {
		t.caches = append(t.caches, fmt.Sprintf("%sCache%03d", stem(i), i))
	}
	for i := 0; i < nStore; i++ {
		t.stores = append(t.stores, fmt.Sprintf("%sDB%03d", stem(i), i))
	}
	return t
}

// components draws per-tier resource parameters for every component.
func components(d *Document, r *rng, t tiers) {
	for _, name := range t.entries {
		base := round(r.in(10, 22), 1)
		d.Components = append(d.Components, ComponentDef{
			Name: name, BaseCPU: base,
			BaseMemory:  round(r.in(90, 140), 0),
			CPUCapacity: round(base*r.in(7, 10), 0),
		})
	}
	for _, name := range t.logic {
		base := round(r.in(4, 12), 1)
		d.Components = append(d.Components, ComponentDef{
			Name: name, BaseCPU: base,
			BaseMemory:  round(r.in(90, 220), 0),
			CPUCapacity: round(base*r.in(8, 14), 0),
		})
	}
	for _, name := range t.caches {
		base := round(r.in(4, 9), 1)
		d.Components = append(d.Components, ComponentDef{
			Name: name, BaseCPU: base,
			BaseMemory:  round(r.in(80, 130), 0),
			CPUCapacity: round(base*r.in(10, 16), 0),
			CacheMax:    round(r.in(250, 900), 0),
			CacheDecay:  round(r.in(0.98, 0.995), 4),
		})
	}
	for _, name := range t.stores {
		base := round(r.in(10, 20), 1)
		d.Components = append(d.Components, ComponentDef{
			Name: name, Stateful: true, BaseCPU: base,
			BaseMemory:  round(r.in(250, 400), 0),
			CPUCapacity: round(base*r.in(7, 10), 0),
			CacheMax:    round(r.in(300, 900), 0),
			CacheDecay:  0.995,
		})
	}
}

// partition splits the shuffled logic indices into n non-empty chunks of
// randomly varying size (when there are at least n indices).
func partition(r *rng, idx []int, n int) [][]int {
	chunks := make([][]int, n)
	if len(idx) <= n {
		for i, v := range idx {
			chunks[i%n] = append(chunks[i%n], v)
		}
	} else {
		// One guaranteed member each, remainder scattered.
		for i := 0; i < n; i++ {
			chunks[i] = append(chunks[i], idx[i])
		}
		for _, v := range idx[n:] {
			k := r.intn(n)
			chunks[k] = append(chunks[k], v)
		}
	}
	// Tiny topologies can leave chunks empty; backfill from the start so
	// every API owns at least one logic service.
	for i := range chunks {
		if len(chunks[i]) == 0 {
			chunks[i] = []int{idx[i%len(idx)]}
		}
	}
	return chunks
}

// genAPI builds one endpoint: a call tree over its logic chunk with
// hit/miss (or small/large write) template variants.
func genAPI(r *rng, cfg Config, t tiers, chunk []int, hubs []string, i int, leafSeq *int) APIDef {
	name := fmt.Sprintf("/%s%s%02d", apiVerbs[r.intn(len(apiVerbs))], stem(chunk[0]), i)
	isWrite := r.float() < 0.35

	// The logic subtree: chunk[0] is the root; later members attach to a
	// random earlier member whose depth and fan-out allow it, giving the
	// irregular shapes of production call graphs.
	nodes := make([]*NodeDef, len(chunk))
	depths := make([]int, len(chunk))
	for j, li := range chunk {
		nodes[j] = &NodeDef{
			Component: t.logic[li],
			Operation: opName(r, isWrite),
			Cost: app.Cost{
				CPUms:  round(r.in(150, 2200), 0),
				MemMiB: round(r.in(0.03, 0.5), 3),
			},
		}
		if j == 0 {
			continue
		}
		parent := 0
		for tries := 0; tries < 4; tries++ {
			k := r.intn(j)
			if depths[k] < cfg.MaxDepth && len(nodes[k].Calls) < cfg.MaxFanout {
				parent = k
				break
			}
		}
		nodes[parent].Calls = append(nodes[parent].Calls, nodes[j])
		depths[j] = depths[parent] + 1
	}

	// Cross-cutting hub call (auth/session verification) from the root.
	if h := hubs[r.intn(len(hubs))]; r.float() < 0.6 && h != nodes[0].Component {
		nodes[0].Calls = append([]*NodeDef{{
			Component: h,
			Operation: "verify",
			Cost:      app.Cost{CPUms: round(r.in(120, 500), 0), MemMiB: round(r.in(0.02, 0.12), 3)},
		}}, nodes[0].Calls...)
	}

	// Each leaf gets a data dependency: a cache in front of a backing
	// store. The first len(caches)/len(stores) assignments walk the tiers
	// in order so every data component is used at least once; after that,
	// a power-law pick concentrates load on a few hot shared stores.
	type dataRef struct{ cache, store int }
	leaves := leafNodes(nodes)
	refs := make([]dataRef, len(leaves))
	for j := range leaves {
		seq := *leafSeq
		*leafSeq++
		ref := dataRef{
			cache: seq % len(t.caches),
			store: seq % len(t.stores),
		}
		if seq >= len(t.caches) {
			ref.cache = int(math.Pow(r.float(), 2) * float64(len(t.caches)))
		}
		if seq >= len(t.stores) {
			ref.store = int(math.Pow(r.float(), 2) * float64(len(t.stores)))
		}
		refs[j] = ref
	}

	// Template variants over clones of the shared tree: a cache-hit path,
	// and either a cache-miss read path or a store write path.
	attach := func(root *NodeDef, variant string) *NodeDef {
		out := clone(root)
		for j, leaf := range leafNodes([]*NodeDef{out}) {
			ref := refs[j%len(refs)]
			cacheNode := &NodeDef{
				Component: t.caches[ref.cache],
				Operation: "get",
				Cost: app.Cost{
					CPUms:    round(r.in(120, 450), 0),
					MemMiB:   round(r.in(0.02, 0.1), 3),
					CacheMiB: round(r.in(0.004, 0.03), 4),
				},
			}
			switch variant {
			case "hit":
				leaf.Calls = append(leaf.Calls, cacheNode)
			case "miss":
				leaf.Calls = append(leaf.Calls, cacheNode, &NodeDef{
					Component: t.stores[ref.store],
					Operation: "find",
					Cost: app.Cost{
						CPUms:    round(r.in(500, 1800), 0),
						MemMiB:   round(r.in(0.1, 0.35), 3),
						CacheMiB: round(r.in(0.005, 0.025), 4),
					},
				})
			case "write":
				leaf.Calls = append(leaf.Calls, &NodeDef{
					Component: t.stores[ref.store],
					Operation: "insert",
					Cost: app.Cost{
						CPUms:    round(r.in(700, 2600), 0),
						MemMiB:   round(r.in(0.1, 0.4), 3),
						WriteOps: round(r.in(2, 12), 0),
						WriteKiB: round(r.in(2, 260), 0),
						DiskMiB:  round(r.in(0.0005, 0.03), 4),
					},
				}, &NodeDef{
					Component: t.caches[ref.cache],
					Operation: "update",
					Cost: app.Cost{
						CPUms:    round(r.in(150, 500), 0),
						MemMiB:   round(r.in(0.02, 0.1), 3),
						CacheMiB: round(r.in(0.004, 0.02), 4),
					},
				})
			}
		}
		return out
	}

	// Entry node in front of the whole tree.
	wrap := func(inner *NodeDef) *NodeDef {
		return &NodeDef{
			Component: t.entries[i%len(t.entries)],
			Operation: strings.TrimPrefix(name, "/"),
			Cost: app.Cost{
				CPUms:  round(r.in(250, 900), 0),
				MemMiB: round(r.in(0.05, 0.4), 3),
			},
			Calls: []*NodeDef{inner},
		}
	}

	p := round(r.in(0.45, 0.8), 2)
	var templates []TemplateDef
	if isWrite {
		templates = []TemplateDef{
			{Prob: p, Root: wrap(attach(nodes[0], "write"))},
			{Prob: 1 - p, Root: wrap(attach(nodes[0], "miss"))},
		}
	} else {
		templates = []TemplateDef{
			{Prob: p, Root: wrap(attach(nodes[0], "hit"))},
			{Prob: 1 - p, Root: wrap(attach(nodes[0], "miss"))},
		}
	}
	return APIDef{
		Name:      name,
		Weight:    round(0.02+r.float()*r.float(), 3),
		PayloadCV: round(r.in(0.05, 0.3), 2),
		Templates: templates,
	}
}

func opName(r *rng, isWrite bool) string {
	readOps := []string{"resolve", "hydrate", "assemble", "lookup", "rank", "filter"}
	writeOps := []string{"stage", "commit", "fanout", "enqueue", "apply", "index"}
	if isWrite {
		return writeOps[r.intn(len(writeOps))]
	}
	return readOps[r.intn(len(readOps))]
}

// leafNodes returns the leaves of the forest in deterministic DFS order.
func leafNodes(roots []*NodeDef) []*NodeDef {
	var out []*NodeDef
	var rec func(n *NodeDef)
	rec = func(n *NodeDef) {
		if len(n.Calls) == 0 {
			out = append(out, n)
			return
		}
		for _, c := range n.Calls {
			rec(c)
		}
	}
	for _, n := range roots {
		rec(n)
	}
	return out
}

// clone deep-copies an invocation tree.
func clone(n *NodeDef) *NodeDef {
	out := &NodeDef{Component: n.Component, Operation: n.Operation, Cost: n.Cost}
	for _, c := range n.Calls {
		out.Calls = append(out.Calls, clone(c))
	}
	return out
}
