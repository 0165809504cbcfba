package service

import (
	"math"
	"net/http"
	"strconv"

	"repro/internal/ctrl"
)

// planAllocation is one reservation of the returned schedule; window
// indices are absolute (the store's indexing), so a caller can line the
// plan up against /v1/sanity ranges or its own scrape timeline.
type planAllocation struct {
	FromWindow int     `json:"from_window"`
	ToWindow   int     `json:"to_window"`
	Amount     float64 `json:"amount"`
}

type planResponse struct {
	Version         int                         `json:"version"`
	FromWindow      int                         `json:"from_window"`
	ToWindow        int                         `json:"to_window"`
	IntervalWindows int                         `json:"interval_windows"`
	Headroom        float64                     `json:"headroom"`
	Plans           map[string][]planAllocation `json:"plans"`
}

// handleAutoscalePlan serves a read-only scaling schedule built from the
// most recent telemetry: the active generation's expected utilization for
// the trailing window range, planned with ctrl.Plan (interval peak of the
// upper confidence bound, plus headroom, with hysteresis). It is advisory —
// the server actuates nothing — and rides the per-window feature cache plus
// the tape-free engine like every other serving read.
//
// Query parameters: windows (trailing range length, default 96), interval
// (reservation granularity in windows, default 12), headroom (fractional
// margin, default 0.10).
func (s *Server) handleAutoscalePlan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	windows, err := intParam(q.Get("windows"), 96)
	if err != nil || windows <= 0 {
		writeErr(w, http.StatusBadRequest, "bad windows parameter %q", q.Get("windows"))
		return
	}
	if windows > maxReadWindows {
		writeErr(w, http.StatusBadRequest, "%d windows in one plan, at most %d (a week at 288 a day)", windows, maxReadWindows)
		return
	}
	interval, err := intParam(q.Get("interval"), 12)
	if err != nil || interval <= 0 {
		writeErr(w, http.StatusBadRequest, "bad interval parameter %q", q.Get("interval"))
		return
	}
	cfg := ctrl.DefaultConfig()
	cfg.IntervalWindows = interval
	if h := q.Get("headroom"); h != "" {
		v, err := strconv.ParseFloat(h, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			writeErr(w, http.StatusBadRequest, "bad headroom parameter %q", h)
			return
		}
		cfg.Headroom = v
	}

	gen := s.pipe.Active()
	if gen == nil {
		writeErr(w, http.StatusPreconditionFailed, "not learned yet")
		return
	}
	sys, store := gen.System, s.store

	to := store.NumWindows()
	from := to - windows
	if oldest := store.OldestWindow(); from < oldest {
		from = oldest
	}
	if from >= to {
		writeErr(w, http.StatusPreconditionFailed, "no telemetry windows to plan from")
		return
	}
	series, err := store.Features(gen.Version, sys.Extractor(), from, to)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	est, err := sys.ExpectedUtilizationVectors(series)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "estimate: %v", err)
		return
	}

	resp := planResponse{
		Version:         gen.Version,
		FromWindow:      from,
		ToWindow:        to,
		IntervalWindows: cfg.IntervalWindows,
		Headroom:        cfg.Headroom,
		Plans:           make(map[string][]planAllocation, len(est)),
	}
	for p, e := range est {
		allocs, err := ctrl.Plan(ctrl.Demand(e), cfg)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out := make([]planAllocation, len(allocs))
		for i, a := range allocs {
			if math.IsInf(a.Amount, 0) || math.IsNaN(a.Amount) {
				writeErr(w, http.StatusBadRequest, "headroom %v overflows the plan for %s", cfg.Headroom, p)
				return
			}
			out[i] = planAllocation{FromWindow: from + a.From, ToWindow: from + a.To, Amount: a.Amount}
		}
		resp.Plans[p.String()] = out
	}
	writeJSON(w, resp)
}

// intParam parses an optional integer query parameter.
func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}
