package service

import (
	"context"
	"encoding/json"
	"sync"

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
	body  []byte // marshaled response (with trailing newline) on success
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

// run computes the flight's estimate, caches the marshaled body, retires
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
		var body []byte
		body, err = json.Marshal(toEstimateResponse(c.gen.Version, est))
		end()
		if err == nil {
			c.body = append(body, '\n')
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
