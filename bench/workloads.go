package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// tenantDef names one application of a workload's daemon. A workload with a
// single tenant whose id is empty runs a single-app daemon; otherwise the
// daemon boots with -fleet and tenants are addressed at /v1/t/{id}/...
type tenantDef struct{ id, app string }

// workloadDef fixes one workload's inputs. Every value is a constant of the
// benchmark, identical on every commit; bench/README.md says why each was
// chosen.
type workloadDef struct {
	name         string
	tenants      []tenantDef
	hidden       int     // deeprestd -hidden
	epochs       int     // deeprestd -epochs
	trainWindows int     // windows ingested and learned in set-up, per tenant
	reqWindows   int     // windows per estimate body
	rate         float64 // open-loop estimates per second
	poolSize     int     // hot bodies per tenant; 0 makes every read distinct
	missEvery    int     // with a pool: every missEvery-th read is distinct, the others are drawn Zipf-wise from the pool; 0: none is
	writesBeside bool    // pushes and sanity checks beside the open-loop reads
	learnBeside  bool    // POST /v1/learn back to back beside the open-loop reads
	rounds       int     // rounds a run's seconds are cut into
	daemonArgs   []string
	// diagnostic workloads run with the others but are not listed in
	// BENCHMARK.json: their metrics do not repeat well enough to gate on.
	diagnostic bool
}

const (
	// openShare and closedShare of a run's seconds are the open-loop and
	// closed-loop phases; the rest is the operator phase.
	openShare   = 0.65
	closedShare = 0.25
	// besideRate is the rate, per tenant for pushes and per daemon for
	// sanity checks, of the calls that run beside the fleet's reads.
	besideRate = 1.0
	// sanityWindows is the range of one /v1/sanity call.
	sanityWindows = 12
	// zipfS skews the draw from a tenant's hot pool.
	zipfS = 1.1
	// oracleSamples responses per run are recomputed through the tape.
	oracleSamples = 8
	// Admission settings of the fleet's daemon, so that both admission
	// layers are on the path; sized so that the benchmark's own traffic is
	// never shed. The traced run gives its in-process fleet the same.
	fleetMaxInflight = 64
	fleetIngestRate  = 8
	fleetIngestBurst = 64
)

var workloads = []workloadDef{
	{
		name:    "miss-social128",
		tenants: []tenantDef{{"", "social"}},
		hidden:  128, epochs: 3, trainWindows: 48,
		reqWindows: 12, rate: 11, rounds: 10,
	},
	{
		name:    "miss-gen150",
		tenants: []tenantDef{{"", "gen:seed=7,components=150"}},
		hidden:  16, epochs: 1, trainWindows: 24,
		reqWindows: 6, rate: 11, rounds: 10,
	},
	{
		name:    "mixed-fleet",
		tenants: []tenantDef{{"social", "social"}, {"hotel", "hotel"}, {"media", "media"}},
		hidden:  64, epochs: 3, trainWindows: 48,
		reqWindows: 12, rate: 125, poolSize: 64, missEvery: 50, writesBeside: true, rounds: 10,
		daemonArgs: []string{"-max-inflight", fmt.Sprint(fleetMaxInflight),
			"-ingest-rate", fmt.Sprint(fleetIngestRate), "-ingest-burst", fmt.Sprint(fleetIngestBurst)},
	},
	{
		name:    "learn-social128",
		tenants: []tenantDef{{"", "social"}},
		hidden:  128, epochs: 3, trainWindows: 24,
		reqWindows: 12, rate: 12, poolSize: 1,
		learnBeside: true, diagnostic: true, rounds: 1,
	},
}

// gated returns the workloads BENCHMARK.json lists.
func gated() []workloadDef {
	var out []workloadDef
	for _, w := range workloads {
		if !w.diagnostic {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Streams keep the request sequences of a run's stages apart, so a body
// that was a miss in one stage is not a hit in the next.
const (
	streamSetup = iota
	streamWarm
	streamOpen
	streamClosed
	streamTrace
	streamPool
)

// target is one tenant of the running daemon, as the load generator sees it.
type target struct {
	id    string
	url   string // daemon base URL plus the tenant prefix
	fx    *fixture
	pairs []string // expert keys the active model serves
	pool  [][]byte

	mu  sync.Mutex
	hot [][]byte // last validated response per pool body

	// A response's version must lie in [minVersion at send, maxVersion]:
	// maxVersion rises before a learn is posted, minVersion after it
	// returned.
	minVersion, maxVersion atomic.Int64
	pushed                 atomic.Int64 // extra chunks pushed so far
}

// estimateResponse mirrors the daemon's /v1/estimate document.
type estimateResponse struct {
	Version   int `json:"version"`
	Estimates map[string]struct {
		Exp []float64 `json:"exp"`
		Low []float64 `json:"low"`
		Up  []float64 `json:"up"`
	} `json:"estimates"`
}

// validateEstimate checks a response in full: version, every pair of the
// model, n finite values in each of the three series.
func (t *target) validateEstimate(resp []byte, n int, minVersion int64) error {
	var er estimateResponse
	if err := json.Unmarshal(resp, &er); err != nil {
		return fmt.Errorf("decode estimate: %w", err)
	}
	if v := int64(er.Version); v < minVersion || v > t.maxVersion.Load() {
		return fmt.Errorf("estimate version %d outside [%d, %d]", v, minVersion, t.maxVersion.Load())
	}
	if len(er.Estimates) != len(t.pairs) {
		return fmt.Errorf("estimate has %d pairs, model has %d", len(er.Estimates), len(t.pairs))
	}
	for _, p := range t.pairs {
		e, ok := er.Estimates[p]
		if !ok {
			return fmt.Errorf("estimate lacks pair %s", p)
		}
		for _, s := range [][]float64{e.Exp, e.Low, e.Up} {
			if len(s) != n {
				return fmt.Errorf("pair %s has %d windows, want %d", p, len(s), n)
			}
			for _, v := range s {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("pair %s has a non-finite value", p)
				}
			}
		}
	}
	return nil
}

// estimate builds the call for one body. k is the body's index in the hot
// pool, or -1 for a distinct body. A pool body whose response equals the
// last validated one byte for byte is not decoded again: estimates are
// deterministic per generation, and decoding every hit would cost the load
// generator more CPU than the daemon spends serving it.
func (t *target) estimate(body []byte, k, n int, onOK func(t *target, body, resp []byte)) call {
	minVersion := t.minVersion.Load()
	return call{method: "POST", url: t.url + "/v1/estimate", body: body,
		check: func(status int, resp []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d: %s", status, snippet(resp))
			}
			if onOK != nil {
				defer onOK(t, body, resp)
			}
			if k >= 0 {
				t.mu.Lock()
				same := bytes.Equal(t.hot[k], resp)
				t.mu.Unlock()
				if same {
					return nil
				}
			}
			if err := t.validateEstimate(resp, n, minVersion); err != nil {
				return err
			}
			if k >= 0 {
				t.mu.Lock()
				t.hot[k] = append(t.hot[k][:0], resp...)
				t.mu.Unlock()
			}
			return nil
		}}
}

// push builds the call that posts the tenant's next extra telemetry chunk.
// A 429 from the fleet's ingest bucket is counted in got429 (and fails).
func (t *target) push(got429 *int64) call {
	extra := len(t.fx.chunks) - t.fx.trainChunks
	k := t.fx.trainChunks + int(t.pushed.Add(1)-1)%extra
	return call{method: "POST", url: t.url + "/v1/telemetry", body: t.fx.chunks[k],
		check: func(status int, resp []byte) error {
			if status == 429 {
				atomic.AddInt64(got429, 1)
			}
			if status != 200 {
				return fmt.Errorf("status %d: %s", status, snippet(resp))
			}
			return nil
		}}
}

// sanity builds a /v1/sanity call over the first sanityWindows windows.
func (t *target) sanity() call {
	minVersion := t.minVersion.Load()
	body := []byte(fmt.Sprintf(`{"from":0,"to":%d}`, sanityWindows))
	return call{method: "POST", url: t.url + "/v1/sanity", body: body,
		check: func(status int, resp []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d: %s", status, snippet(resp))
			}
			var sr struct {
				Version int64             `json:"version"`
				Events  []json.RawMessage `json:"events"`
			}
			if err := json.Unmarshal(resp, &sr); err != nil {
				return fmt.Errorf("decode sanity: %w", err)
			}
			if sr.Version < minVersion || sr.Version > t.maxVersion.Load() || sr.Events == nil {
				return fmt.Errorf("sanity version %d outside [%d, %d] or no events list",
					sr.Version, minVersion, t.maxVersion.Load())
			}
			return nil
		}}
}

// zipfCDF is the cumulative distribution of a Zipf draw over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// rank returns the index u in [0, 1) falls on.
func rank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u < cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
