package service

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/quality"
)

// qualityHorizons derives the report horizons from the configured maximum:
// the defaults (1h/6h/24h) clipped to max, with max itself always included
// as the longest.
func qualityHorizons(max time.Duration) []time.Duration {
	if max <= 0 {
		max = quality.DefaultHorizons[len(quality.DefaultHorizons)-1]
	}
	var hs []time.Duration
	for _, h := range quality.DefaultHorizons {
		if h < max {
			hs = append(hs, h)
		}
	}
	return append(hs, max)
}

// newScorer builds the shadow scorer over the server's store and pipeline.
func (s *Server) newScorer() *quality.Scorer {
	return quality.New(quality.Config{
		Horizons:       qualityHorizons(s.cfg.QualityHorizon),
		Retention:      s.cfg.Retention,
		SMAPEThreshold: s.cfg.QualityThreshold,
	}, quality.Deps{
		Source: s.store,
		Active: func() (int, *core.System) {
			g := s.pipe.Active()
			if g == nil {
				return 0, nil
			}
			return g.Version, g.System
		},
		Metrics: s.opts.Metrics,
		Tracer:  s.opts.Tracer,
		Logger:  s.log,
	})
}

// qualityVerdict is the pipeline's QualityCheck hook: score through the
// newest window, then take the verdict on the windows since trainedTo. A
// verdict with a Reason makes the pipeline retrain with trigger "drift".
func (s *Server) qualityVerdict(ctx context.Context, trainedTo int) *quality.Verdict {
	s.quality.CatchUp(ctx)
	return s.quality.Verdict(trainedTo)
}

// handleQuality serves the shadow-scoring scoreboard. The report is
// refreshed first, so the response covers every ingested window.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	s.quality.CatchUp(r.Context())
	writeJSON(w, s.quality.Report())
}
