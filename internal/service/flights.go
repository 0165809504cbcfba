package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"maps"
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
// The table holds at most estimateCacheSize keys, running or done, and
// forgets the oldest first; a forgotten key's call runs on for the callers
// that hold it.
type estimateTable struct {
	mu    sync.Mutex
	calls map[uint64]estEntry
	order []uint64 // the keys of calls, oldest first

	hits, misses, joins *obs.Counter

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
}

func newEstimateTable(tracer *obs.SpanTracer, metrics *obs.Registry) *estimateTable {
	return &estimateTable{calls: make(map[uint64]estEntry, estimateCacheSize), tracer: tracer,
		hits: metrics.Counter("deeprest_estimate_cache_hits_total",
			"Estimate requests answered by a completed call in the estimate table."),
		misses: metrics.Counter("deeprest_estimate_cache_misses_total",
			"Estimate requests that had to run the full synthesize-extract-predict path."),
		joins: metrics.Counter("deeprest_estimate_cache_dedup_hits_total",
			"Estimate requests answered by joining an identical call still computing (dedup)."),
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

// file puts c under key, first forgetting the oldest keys beyond the
// table's capacity. The caller holds t.mu.
func (t *estimateTable) file(key uint64, req []byte, c *estCall) {
	if _, ok := t.calls[key]; !ok {
		for len(t.calls) >= estimateCacheSize {
			delete(t.calls, t.order[0])
			t.order = t.order[1:]
		}
		t.order = append(t.order, key)
	}
	t.calls[key] = estEntry{req: string(req), call: c}
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

// run computes the call's estimate and releases every waiter. Success leaves
// the table as it is: the call is already filed. A failed call first removes
// every key that points at it, so a refusal is never served from the table.
// It is the one place a miss is computed, so it is where a miss is timed: a
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
		c.body, err = encodeEstimate(gen.Version, est)
		end()
	}
	c.err = err
	span.SetErr(err)
	span.End()
	if err != nil {
		t.mu.Lock()
		maps.DeleteFunc(t.calls, func(_ uint64, e estEntry) bool { return e.call == c })
		t.order = slices.DeleteFunc(t.order, func(k uint64) bool { _, ok := t.calls[k]; return !ok })
		t.mu.Unlock()
	}
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
	type entry struct {
		key string
		p   app.Pair
	}
	keys := make([]entry, 0, len(est))
	for p := range est {
		keys = append(keys, entry{p.String(), p})
	}
	slices.SortFunc(keys, func(a, b entry) int { return cmp.Compare(a.key, b.key) })

	buf := encodeBufs.Get().(*[]byte)
	b := append((*buf)[:0], `{"version":`...)
	defer func() { *buf = b; encodeBufs.Put(buf) }()
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"estimates":{`...)
	var ok bool
	for n, k := range keys {
		if n > 0 {
			b = append(b, ',')
		}
		e := est[k.p]
		b = append(appendJSONString(b, k.key), ':')
		for i, s := range [3][]float64{e.Exp, e.Low, e.Up} {
			b = append(b, [3]string{`{"exp":`, `,"low":`, `,"up":`}[i]...)
			if b, ok = appendFloats(b, s); !ok {
				return nil, fmt.Errorf("%s: a non-finite estimate", k.key)
			}
		}
		b = append(appendJSONString(append(b, `,"unit":`...), k.p.Resource.Unit()), '}')
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
