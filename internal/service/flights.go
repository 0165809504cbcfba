package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
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

// estFlights is the singleflight in front of /v1/estimate cache misses: an
// arriving request identical to one already computing (same generation,
// same canonical body) joins that flight instead of computing again, so a
// thundering herd of identical queries pays once. Distinct requests each
// compute on a goroutine of their own and fan their expert passes straight
// onto the shared inference pool. A flight is pinned to the generation its
// first caller read, so a response can never mix experts from two
// generations.
type estFlights struct {
	mu    sync.Mutex
	calls map[uint64]*estCall

	cache     *predCache // filled once per flight, on completion
	dedupHits *obs.Counter

	// Where a miss's time goes (see run); both nil-safe. The request-side
	// stages of the same histogram are observed by handleEstimate.
	tracer       *obs.SpanTracer
	stageSeconds *obs.HistogramVec
}

// estCall is one in-flight computation; waiters block on done.
type estCall struct {
	canon string
	gen   *pipeline.Generation
	done  chan struct{}
	body  []byte // encoded response (with trailing newline) on success
	err   error
}

func newEstFlights(cache *predCache, dedupHits *obs.Counter, tracer *obs.SpanTracer, metrics *obs.Registry) *estFlights {
	return &estFlights{calls: make(map[uint64]*estCall), cache: cache, dedupHits: dedupHits, tracer: tracer,
		stageSeconds: metrics.HistogramVec("deeprest_estimate_stage_duration_seconds",
			"Wall-clock duration of one stage of answering an estimate. Every request: read (the body) and lookup (the response cache, by the bytes as they arrived). A spelling the cache has not seen: decode (JSON decode, validation, canonical re-marshal) and wait (on the flight computing the answer, first caller or joined). Once per flight: synthesize (trace synthesis and feature extraction), predict (the inference engine), encode (JSON response).",
			obs.DurationBuckets, "stage")}
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
		// The flight outlives a caller that gives up: it keeps the request's
		// span lineage, not its cancellation.
		go f.run(context.WithoutCancel(ctx), c, key, traffic)
	}
	f.mu.Unlock()
	select {
	case <-c.done:
		return c.body, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run computes the flight's estimate, caches the encoded body, retires
// the singleflight entry and releases every waiter. It is the one place a
// miss is computed, so it is where a miss is timed: a service.estimate span
// with one child per stage, each stage also observed into
// deeprest_estimate_stage_duration_seconds (obs.SpanTracer.Stages, as a learn
// does) — "why was that estimate slow" reads off /debug/spans and /metrics.
func (f *estFlights) run(ctx context.Context, c *estCall, key uint64, traffic *workload.Traffic) {
	ctx, span := f.tracer.Start(ctx, "service.estimate")
	span.SetWindows(traffic.NumWindows())
	stage := f.tracer.Stages(ctx, f.stageSeconds)
	sys := c.gen.System
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
		c.body, err = encodeEstimate(c.gen.Version, est)
		end()
		if err == nil {
			f.cache.put(key, c.canon, c.body)
		}
	}
	c.err = err
	span.SetErr(err)
	span.End()
	f.mu.Lock()
	if f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	close(c.done)
}

// encodeBufs recycles the buffers responses are encoded into before they are
// copied out at their exact length.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeEstimate writes the /v1/estimate response for the generation's
// version and its estimates, and a newline: the bytes json.Marshal makes of
// {"version", "estimates": {pair: {"exp", "low", "up", "unit"}}}, pair keys
// sorted, in a buffer exactly as long, since the response cache keeps it. A
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
