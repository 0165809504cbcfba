package service

import (
	"hash/maphash"
	"sync"
)

// predCache memoises marshaled /v1/estimate responses keyed by
// (model generation, request bytes). Estimates are deterministic given
// a generation — trace synthesis is seeded and inference is pure — so
// repeated identical queries (dashboards refreshing a capacity plan,
// autoscalers polling the same traffic hypothesis) can short-circuit the
// whole synthesize→extract→predict path. A response is filed under its
// request's canonical form and, for a client that spells the request
// otherwise, under that spelling too — two entries, one body slice (see
// handleEstimate). Keys embed the generation version, so a publish or
// rollback naturally invalidates: stale entries stop being referenced and
// age out of the FIFO.
type predCache struct {
	mu  sync.Mutex
	cap int
	// entries maps the request hash to the stored request (collision
	// guard) and the marshaled response body.
	entries map[uint64]predEntry
	order   []uint64 // insertion order for FIFO eviction
}

type predEntry struct {
	req  string
	body []byte
}

func newPredCache(capacity int) *predCache {
	return &predCache{cap: capacity, entries: make(map[uint64]predEntry, capacity)}
}

// predSeed keys the hash for the life of the process; keys never leave it.
var predSeed = maphash.MakeSeed()

// predKey hashes a generation version and a request body — canonical, or as
// it arrived (see handleEstimate). It is shared by the response cache and
// the singleflight in front of cache misses so the two layers agree on
// request identity. It runs on every read, hits included, so it allocates
// nothing and hashes at memory speed.
func predKey(version int, req []byte) uint64 {
	return maphash.Bytes(predSeed, req) ^ uint64(version)*0x9e3779b97f4a7c15
}

// get returns the cached response body for the key, verifying the stored
// request bytes so a hash collision can never serve the wrong estimate.
func (c *predCache) get(key uint64, req []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.req != string(req) {
		return nil, false
	}
	return e.body, true
}

// put stores a response body, evicting the oldest entry once capacity is
// reached.
func (c *predCache) put(key uint64, req string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		for len(c.entries) >= c.cap && len(c.order) > 0 {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = predEntry{req: req, body: body}
}
