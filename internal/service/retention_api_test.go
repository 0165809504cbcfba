package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/pipeline"
)

// TestEstimateCacheHit: a repeated identical /v1/estimate against the same
// model generation is served from the estimate table — byte-identical
// body, marked with the cache header — and publishing a new generation
// invalidates (the version is part of the key).
func TestEstimateCacheHit(t *testing.T) {
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 81)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}

	body := `{"windows":[{"/read":10},{"/read":25},{"/read":40}]}`
	first := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body))
	if first.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", first.Code, first.Body)
	}
	if first.Header().Get("X-DeepRest-Cache") == "hit" {
		t.Fatal("first estimate claims a cache hit")
	}
	second := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body))
	if second.Code != http.StatusOK {
		t.Fatalf("second estimate = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-DeepRest-Cache"); got != "hit" {
		t.Fatalf("second identical estimate not served from cache (header %q)", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached estimate body differs from the computed one")
	}

	// Same semantics, different JSON spelling: the canonical re-marshal
	// must still hit.
	respelled := `{ "windows": [ {"/read":10}, {"/read":25}, {"/read":40} ] }`
	third := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled))
	if got := third.Header().Get("X-DeepRest-Cache"); got != "hit" {
		t.Fatalf("re-spelled identical estimate not served from cache (header %q)", got)
	}

	// A new generation invalidates: the same request recomputes against
	// the new version.
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{}`)); rec.Code != http.StatusOK {
		t.Fatalf("second learn = %d: %s", rec.Code, rec.Body)
	}
	fourth := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body))
	if fourth.Code != http.StatusOK {
		t.Fatalf("post-retrain estimate = %d: %s", fourth.Code, fourth.Body)
	}
	if fourth.Header().Get("X-DeepRest-Cache") == "hit" {
		t.Fatal("estimate against a new generation must not reuse the old cache entry")
	}
	var resp estimateResponse
	if err := json.Unmarshal(fourth.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 {
		t.Fatalf("post-retrain estimate version = %d, want 2", resp.Version)
	}
}

// TestRetentionBitIdenticalEstimates is the acceptance proof for bounded
// ingestion: a retention-bounded service and an unbounded one ingest the
// same telemetry, learn over the same absolute window range (the bounded
// store's retained range), and must answer /v1/estimate and /v1/sanity
// byte-for-byte identically — eviction may only forget history, never
// change what the retained windows mean.
func TestRetentionBitIdenticalEstimates(t *testing.T) {
	const retention = 30
	build := func(bounded bool) (*Server, http.Handler) {
		t.Helper()
		var cfg Config
		if bounded {
			cfg.Retention = retention
		}
		s, err := New(quickServiceOpts(), pipeline.DefaultConfig(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 83)); rec.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
		}
		return s, h
	}
	_, bh := build(true)
	_, uh := build(false)

	// The bounded store has evicted its head; learn both services over
	// exactly the retained absolute range.
	var st statusResponse
	rec := do(t, bh, "GET", "/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.OldestWindow == 0 {
		t.Fatalf("bounded store evicted nothing (status %+v); test needs ingest >> retention", st)
	}
	if st.ResidentWindows != retention {
		t.Fatalf("resident_windows = %d, want %d", st.ResidentWindows, retention)
	}
	if st.Windows != st.OldestWindow+st.ResidentWindows {
		t.Fatalf("windows = %d, want oldest+resident = %d", st.Windows, st.OldestWindow+st.ResidentWindows)
	}
	learn := fmt.Sprintf(`{"from":%d,"to":%d}`, st.OldestWindow, st.Windows)
	if rec := do(t, bh, "POST", "/v1/learn", bytes.NewBufferString(learn)); rec.Code != http.StatusOK {
		t.Fatalf("bounded learn = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, uh, "POST", "/v1/learn", bytes.NewBufferString(learn)); rec.Code != http.StatusOK {
		t.Fatalf("unbounded learn = %d: %s", rec.Code, rec.Body)
	}

	est := `{"windows":[{"/read":10},{"/read":30},{"/read":50},{"/read":20}]}`
	be := do(t, bh, "POST", "/v1/estimate", bytes.NewBufferString(est))
	ue := do(t, uh, "POST", "/v1/estimate", bytes.NewBufferString(est))
	if be.Code != http.StatusOK || ue.Code != http.StatusOK {
		t.Fatalf("estimate codes = %d / %d: %s / %s", be.Code, ue.Code, be.Body, ue.Body)
	}
	if !bytes.Equal(be.Body.Bytes(), ue.Body.Bytes()) {
		t.Fatalf("bounded and unbounded estimates differ:\n%s\nvs\n%s", be.Body, ue.Body)
	}

	// Sanity over the retained range agrees too (it reads cached features
	// on the bounded side, raw traces on the unbounded one).
	sanity := fmt.Sprintf(`{"from":%d,"to":%d}`, st.OldestWindow, st.Windows)
	bs := do(t, bh, "POST", "/v1/sanity", bytes.NewBufferString(sanity))
	us := do(t, uh, "POST", "/v1/sanity", bytes.NewBufferString(sanity))
	if bs.Code != http.StatusOK || us.Code != http.StatusOK {
		t.Fatalf("sanity codes = %d / %d: %s / %s", bs.Code, us.Code, bs.Body, us.Body)
	}
	if !bytes.Equal(bs.Body.Bytes(), us.Body.Bytes()) {
		t.Fatalf("bounded and unbounded sanity differ:\n%s\nvs\n%s", bs.Body, us.Body)
	}

	// Reads reaching below the horizon fail loudly instead of silently
	// shifting the range.
	below := do(t, bh, "POST", "/v1/sanity", bytes.NewBufferString(`{"from":0,"to":8}`))
	if below.Code == http.StatusOK {
		t.Fatalf("sanity below the horizon = %d, want an error", below.Code)
	}
}
