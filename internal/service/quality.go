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
		SustainWindows: s.cfg.QualitySustain,
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

// qualityRegressed is the pipeline's QualityCheck hook: advance the
// scoreboard, then report the sustained-regression gate. Returning true
// makes the pipeline schedule an early retrain with trigger "quality".
func (s *Server) qualityRegressed() (bool, string) {
	s.quality.CatchUp(context.Background())
	return s.quality.Regressed()
}

// handleQuality serves the shadow-scoring scoreboard. The report is
// refreshed first, so the response always covers every complete chunk of
// ingested telemetry.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	s.quality.CatchUp(r.Context())
	writeJSON(w, s.quality.Report())
}
