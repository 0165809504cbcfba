package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// estimateTable is the one place /v1/estimate decides request identity. It
// maps predKey(version, bytes) to the call filed under those bytes: a call is
// filed when it starts, so a lookup finds it done (a hit: its body is the
// answer), running (a join: a herd of identical queries pays once) or not at
// all. Estimates are deterministic per generation — trace synthesis is seeded
// and inference is pure — so a done call answers every later read of the
// same (generation, traffic). A call is filed under its request's canonical
// form and, for a client that spells the request otherwise, under that
// spelling too; both keys point at one call. Keys embed the generation
// version, so a publish or rollback invalidates by no longer asking for them.
//
// The table holds at most estimateCacheSize keys and estimateCacheBytes: a
// key is charged its request bytes, and a call that succeeded its body once,
// however many keys name it, for as long as one does. Filing a key and
// completing a call forget keys oldest first until both bounds hold. A
// forgotten key's call runs on for the callers that hold it; an entry larger
// than the whole budget answers them too, but is never retained and forgets
// nothing.
type estimateTable struct {
	mu    sync.Mutex
	calls map[uint64]estEntry
	order []uint64 // the keys of calls, oldest first
	bytes int      // retained: every key's request, every filed success's body

	hits, misses, joins *obs.Counter
	retained            *obs.Gauge // bytes

	// Where a miss's time goes (see run); both nil-safe. The request-side
	// stages of the same histogram are observed by handleEstimate.
	tracer       *obs.SpanTracer
	stageSeconds *obs.HistogramVec
}

// estEntry is one key of the table: the bytes it hashes (so a hash collision
// can never serve the wrong estimate) and the call they name.
type estEntry struct {
	req  string
	call *estCall
}

// estCall is one computation of an estimate. Waiters block on done; a call
// in the table with done closed succeeded.
type estCall struct {
	done chan struct{}
	body []byte // encoded response (with trailing newline) on success
	err  error
	// Under the table's mu: the keys filed to the call, and whether it
	// succeeded with a body the table may retain (charged while keys > 0).
	keys int
	ok   bool
}

func newEstimateTable(tracer *obs.SpanTracer, metrics *obs.Registry) *estimateTable {
	return &estimateTable{calls: make(map[uint64]estEntry, estimateCacheSize), tracer: tracer,
		hits: metrics.Counter("deeprest_estimate_cache_hits_total",
			"Estimate requests answered by a completed call in the estimate table."),
		misses: metrics.Counter("deeprest_estimate_cache_misses_total",
			"Estimate requests that had to run the full synthesize-extract-predict path."),
		joins: metrics.Counter("deeprest_estimate_cache_dedup_hits_total",
			"Estimate requests answered by joining an identical call still computing (dedup)."),
		retained: metrics.Gauge("deeprest_estimate_cache_bytes",
			"Bytes the estimate table retains: each key's request and each completed call's response once."),
		stageSeconds: metrics.HistogramVec("deeprest_estimate_stage_duration_seconds",
			"Wall-clock duration of one stage of answering an estimate. Every request: read (the body) and lookup (the estimate table, by the bytes as they arrived). A spelling the table has not filed: decode (JSON decode, validation, canonical re-marshal). A request whose answer is still computing: wait (on the flight, first caller or joined). Once per flight: synthesize (trace synthesis and feature extraction), predict (the inference engine), encode (JSON response).",
			obs.DurationBuckets, "stage")}
}

// predSeed keys the hash for the life of the process; keys never leave it.
var predSeed = maphash.MakeSeed()

// predKey hashes a generation version and a request body — canonical, or as
// it arrived (see handleEstimate). It runs on every read, hits included, so
// it allocates nothing and hashes at memory speed.
func predKey(version int, req []byte) uint64 {
	return maphash.Bytes(predSeed, req) ^ uint64(version)*0x9e3779b97f4a7c15
}

// find returns the call filed under (key, req), or nil, and whether it is
// done, counting a hit or a join.
func (t *estimateTable) find(key uint64, req []byte) (*estCall, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.findLocked(key, req)
}

func (t *estimateTable) findLocked(key uint64, req []byte) (*estCall, bool) {
	e, ok := t.calls[key]
	if !ok || e.req != string(req) {
		return nil, false
	}
	select {
	case <-e.call.done:
		t.hits.Inc()
		return e.call, true
	default:
		t.misses.Inc()
		t.joins.Inc()
		return e.call, false
	}
}

// start returns the call for the canonical request canon under gen, and
// whether it is done: the one filed, or a new flight over traffic, filed
// before it runs. A raw spelling other than canon is filed as a second key
// to the same call. A flight is pinned to gen, so a response never mixes
// experts from two generations. It outlives a caller that gives up: it keeps
// ctx's span lineage, not its cancellation, so joiners and later reads get
// its result.
func (t *estimateTable) start(ctx context.Context, gen *pipeline.Generation, traffic *workload.Traffic, canon, raw []byte) (*estCall, bool) {
	key := predKey(gen.Version, canon)
	t.mu.Lock()
	defer t.mu.Unlock()
	c, done := t.findLocked(key, canon)
	if c == nil {
		t.misses.Inc()
		c = &estCall{done: make(chan struct{})}
		t.file(key, canon, c)
		go t.run(context.WithoutCancel(ctx), c, gen, traffic)
	}
	if !bytes.Equal(raw, canon) {
		t.file(predKey(gen.Version, raw), raw, c)
	}
	return c, done
}

// file puts c under key, first forgetting keys (evictOldest) until the table
// has room for it under both bounds. A key already filed keeps its entry (a
// hash collision keeps the first), and an entry over the whole byte budget
// alone — its request, and its call's body once that succeeded — is not
// filed and forgets nothing. The caller holds t.mu.
func (t *estimateTable) file(key uint64, req []byte, c *estCall) {
	full := len(req)
	if c.ok {
		full += len(c.body)
	}
	if _, ok := t.calls[key]; ok || full > estimateCacheBytes {
		return
	}
	for len(t.calls) >= estimateCacheSize || t.bytes+t.charge(req, c) > estimateCacheBytes {
		t.evictOldest()
	}
	t.bytes += t.charge(req, c)
	c.keys++
	t.order = append(t.order, key)
	t.calls[key] = estEntry{req: string(req), call: c}
	t.retained.Set(float64(t.bytes))
}

// charge is what filing req to c adds: its bytes, and c's body if the table
// does not already hold it.
func (t *estimateTable) charge(req []byte, c *estCall) int {
	if c.ok && c.keys == 0 {
		return len(req) + len(c.body)
	}
	return len(req)
}

// evictOldest forgets the oldest key. The caller holds t.mu.
func (t *estimateTable) evictOldest() {
	t.drop(t.order[0])
	t.order = t.order[1:]
}

// drop deletes key from the map and returns its charge, and with the call's
// last key its body's; the caller takes the key out of order.
func (t *estimateTable) drop(key uint64) {
	e := t.calls[key]
	delete(t.calls, key)
	t.bytes -= len(e.req)
	if e.call.keys--; e.call.keys == 0 && e.call.ok {
		t.bytes -= len(e.call.body)
	}
}

// wait returns the call's response body once it is done, or ctx's error
// first; ctx bounds only this caller's wait.
func (c *estCall) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-c.done:
		return c.body, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run computes the call's estimate and settles it (complete). It is the one
// place a miss is computed, so it is where a miss is timed: a
// service.estimate span with one child per stage, each stage also observed
// into deeprest_estimate_stage_duration_seconds (obs.SpanTracer.Stages, as a
// learn does) — "why was that estimate slow" reads off /debug/spans and
// /metrics.
func (t *estimateTable) run(ctx context.Context, c *estCall, gen *pipeline.Generation, traffic *workload.Traffic) {
	ctx, span := t.tracer.Start(ctx, "service.estimate")
	span.SetWindows(traffic.NumWindows())
	stage := t.tracer.Stages(ctx, t.stageSeconds)
	sys := gen.System
	end := stage("core.synthesize_features", "synthesize")
	series, err := sys.SynthesizeFeatures(traffic)
	end()
	var est map[app.Pair]estimator.Estimate
	if err == nil {
		end = stage("infer.predict", "predict")
		est, err = sys.ExpectedUtilizationVectors(series)
		end()
	}
	if err == nil {
		end = stage("service.encode", "encode")
		pairs, names := gen.SortedPairs()
		c.body, err = encodeSorted(gen.Version, pairs, names, est)
		end()
	}
	c.err = err
	span.SetErr(err)
	span.End()
	t.complete(c)
}

// complete settles the call, its body and err set, in the table and then
// releases its waiters. Success charges the body, and the table forgets keys
// (evictOldest) until it is within its byte budget again. A failed call, and
// one whose body alone is over the budget, first removes every key that
// points at it and forgets no other, so a refusal is never served from the
// table.
func (t *estimateTable) complete(c *estCall) {
	t.mu.Lock()
	if c.err == nil && len(c.body) <= estimateCacheBytes {
		c.ok = true
		if c.keys > 0 {
			t.bytes += len(c.body)
			for t.bytes > estimateCacheBytes {
				t.evictOldest()
			}
		}
	} else {
		for k, e := range t.calls {
			if e.call == c {
				t.drop(k)
			}
		}
		t.order = slices.DeleteFunc(t.order, func(k uint64) bool { _, ok := t.calls[k]; return !ok })
	}
	t.retained.Set(float64(t.bytes))
	t.mu.Unlock()
	close(c.done)
}

// encodeBufs recycles the buffers responses are encoded into before they are
// copied out at their exact length.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeEstimate writes the /v1/estimate response for the generation's
// version and its estimates, and a newline: the bytes json.Marshal makes of
// {"version", "estimates": {pair: {"exp", "low", "up", "unit"}}}, pair keys
// sorted, in a buffer exactly as long, since the estimate table keeps it. A
// non-finite estimate is an error, as it is to json.Marshal.
func encodeEstimate(version int, est map[app.Pair]estimator.Estimate) ([]byte, error) {
	pairs := make([]app.Pair, 0, len(est))
	for p := range est {
		pairs = append(pairs, p)
	}
	return encodeSorted(version, pairs, app.SortByName(pairs), est)
}

// encodeSorted is encodeEstimate over est's pairs already sorted, and their
// names; est must hold exactly those pairs.
func encodeSorted(version int, pairs []app.Pair, names []string, est map[app.Pair]estimator.Estimate) ([]byte, error) {
	if len(est) != len(pairs) {
		return nil, fmt.Errorf("%d estimates for %d pairs", len(est), len(pairs))
	}
	buf := encodeBufs.Get().(*[]byte)
	b := append((*buf)[:0], `{"version":`...)
	defer func() { *buf = b; encodeBufs.Put(buf) }()
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"estimates":{`...)
	var ok bool
	for n, p := range pairs {
		if n > 0 {
			b = append(b, ',')
		}
		e, found := est[p]
		if !found {
			return nil, fmt.Errorf("no estimate for %s", names[n])
		}
		b = append(appendJSONString(b, names[n]), ':')
		for i, s := range [3][]float64{e.Exp, e.Low, e.Up} {
			b = append(b, [3]string{`{"exp":`, `,"low":`, `,"up":`}[i]...)
			if b, ok = appendFloats(b, s); !ok {
				return nil, fmt.Errorf("%s: a non-finite estimate", names[n])
			}
		}
		b = append(appendJSONString(append(b, `,"unit":`...), p.Resource.Unit()), '}')
	}
	b = append(b, "}}\n"...)
	return append(make([]byte, 0, len(b)), b...), nil
}

// appendFloats appends s as a JSON array — null when s is nil — in
// encoding/json's number format: strconv's shortest 'f' form, or 'e' form
// without a leading exponent zero outside [1e-6, 1e21). It reports false at
// a NaN or an infinity, which JSON cannot spell.
func appendFloats(b []byte, s []float64) ([]byte, bool) {
	if s == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, f := range s {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			b = strconv.AppendFloat(b, f, 'e', -1, 64)
			if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1] // e-07 → e-7
				b = b[:n-1]
			}
		} else {
			b = strconv.AppendFloat(b, f, 'f', -1, 64)
		}
	}
	return append(b, ']'), true
}

// appendJSONString appends s quoted as encoding/json quotes it. A string of
// printable ASCII but for the five bytes it escapes (" \ < > &) is copied
// between quotes; any other — a component may be named anything — is quoted
// by encoding/json itself, so an odd name costs a reflective call, never a
// different byte.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
