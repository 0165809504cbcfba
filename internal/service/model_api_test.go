package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/pipeline"
)

// failingWriter lets left bytes through and fails every write after them.
type failingWriter struct {
	http.ResponseWriter
	left int
}

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(b) <= w.left {
		w.left -= len(b)
		return w.ResponseWriter.Write(b)
	}
	n, _ := w.ResponseWriter.Write(b[:w.left])
	w.left = 0
	return n, errors.New("injected write failure")
}

// TestModelDownloadFailureAbortsConnection: a /v1/model stream that fails
// after the header must not end as a clean 200 — the client's read has to
// return an error, because a short stream is otherwise indistinguishable
// from a whole one on the wire. The failure is counted and logged.
func TestModelDownloadFailureAbortsConnection(t *testing.T) {
	s, _, logBuf := instrumentedService(t, pipeline.DefaultConfig(), Config{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 71)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	good := do(t, h, "GET", "/v1/model", nil).Body.Bytes()
	if _, err := estimator.Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("the whole stream does not load: %v", err)
	}
	// The cut falls among the experts, past the header: Load gets that far.
	cut := len(good) / 2
	if _, err := estimator.Load(bytes.NewReader(good[:cut])); err == nil || !strings.Contains(err.Error(), "decode expert") {
		t.Fatalf("Load of the first %d of %d bytes: %v, want an expert decode error", cut, len(good), err)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&failingWriter{ResponseWriter: w, left: cut}, r)
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/model")
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("a stream cut at %d of %d bytes read cleanly (%d bytes, status %d)", cut, len(good), len(body), resp.StatusCode)
		}
	}

	scrape := do(t, h, "GET", "/metrics", nil).Body.String()
	if !strings.Contains(scrape, "deeprest_model_download_failures_total 1") {
		t.Errorf("scrape does not count the failed download:\n%s", grepLines(scrape, "model_download"))
	}
	if !strings.Contains(scrape, `deeprest_http_requests_total{endpoint="/v1/model",code="200"} 2`) {
		t.Errorf("the aborted request skipped the middleware's bookkeeping:\n%s", grepLines(scrape, `"/v1/model"`))
	}
	if !strings.Contains(logBuf.String(), "model download aborted mid-stream") {
		t.Errorf("no warning logged for the aborted download")
	}
}

func grepLines(text, sub string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
