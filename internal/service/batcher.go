package service

import (
	"context"
	"encoding/json"
	"sync"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// estFlights is the singleflight in front of /v1/estimate cache misses: an
// arriving request identical to one already computing (same generation,
// same canonical body) joins that flight instead of computing again, so a
// thundering herd of identical queries pays once. Distinct requests each
// run gen.System.EstimateTraffic on a goroutine of their own and fan their
// expert passes straight onto the shared inference pool. A flight is pinned
// to the generation its first caller read, so a response can never mix
// experts from two generations.
type estFlights struct {
	mu    sync.Mutex
	calls map[uint64]*estCall

	cache     *predCache // filled once per flight, on completion
	dedupHits *obs.Counter
}

// estCall is one in-flight computation; waiters block on done.
type estCall struct {
	canon string
	gen   *pipeline.Generation
	done  chan struct{}
	body  []byte // marshaled response (with trailing newline) on success
	err   error
}

func newEstFlights(cache *predCache, dedupHits *obs.Counter) *estFlights {
	return &estFlights{calls: make(map[uint64]*estCall), cache: cache, dedupHits: dedupHits}
}

// do computes (or joins) the estimate for one request and returns the
// marshaled response body. ctx bounds only this caller's wait: a flight
// every caller has abandoned still completes, so joiners and the response
// cache get their result.
func (f *estFlights) do(ctx context.Context, gen *pipeline.Generation, traffic *workload.Traffic, key uint64, canon []byte) ([]byte, error) {
	f.mu.Lock()
	c, ok := f.calls[key]
	if ok && c.canon == string(canon) && c.gen == gen {
		f.dedupHits.Inc()
	} else {
		c = &estCall{canon: string(canon), gen: gen, done: make(chan struct{})}
		f.calls[key] = c
		go f.run(c, key, traffic)
	}
	f.mu.Unlock()
	select {
	case <-c.done:
		return c.body, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run computes the flight's estimate, caches the marshaled body, retires
// the singleflight entry and releases every waiter.
func (f *estFlights) run(c *estCall, key uint64, traffic *workload.Traffic) {
	est, err := c.gen.System.EstimateTraffic(traffic)
	if err == nil {
		var body []byte
		if body, err = json.Marshal(toEstimateResponse(c.gen.Version, est)); err == nil {
			c.body = append(body, '\n')
			f.cache.put(key, c.canon, c.body)
		}
	}
	c.err = err
	f.mu.Lock()
	if f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	close(c.done)
}
