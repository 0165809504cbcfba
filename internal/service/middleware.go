package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// statusWriter captures the status code and body size that flowed through a
// ResponseWriter, for metrics and the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so streaming responses (the model
// download) keep working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpointLabel maps a request to a bounded metric label: one of the routed
// patterns, or "other" for everything else so unroutable paths cannot mint
// unbounded label values.
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/v1/telemetry", "/v1/learn", "/v1/status", "/v1/estimate",
		"/v1/sanity", "/v1/influence", "/v1/model",
		"/v1/pipeline/status", "/v1/models", "/v1/quality",
		"/v1/autoscale/plan", "/v1/version", "/metrics":
		return p
	}
	if strings.HasPrefix(p, "/v1/models/") && strings.HasSuffix(p, "/activate") {
		return "/v1/models/{version}/activate"
	}
	return "other"
}

// newRequestPrefix draws a random per-process prefix so request ids from
// different daemon runs never collide in aggregated logs.
func newRequestPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req"
	}
	return hex.EncodeToString(b[:])
}

// nextRequestID mints a unique id: random process prefix + atomic sequence.
func (s *Server) nextRequestID() string {
	return s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 16)
}

// withAdmission is the one admission middleware, inside withObservability so
// a shed request is counted and logged like any other response. Telemetry
// pushes first spend a token from the ingest bucket (429 + Retry-After when
// it is empty, so a flooding writer is turned away before it takes an
// in-flight slot); then at most MaxInflight requests are in the handler
// stack at once and the rest are shed with 503 + Retry-After. Shedding beats
// unbounded queueing: a saturated estimator answering late is
// indistinguishable from an outage to its callers, while a fast refusal
// lets them back off and retry. GET /metrics is exempt, so the service stays
// observable under overload.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	if s.admit == nil && s.bucket == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		if s.bucket != nil && r.Method == http.MethodPost && r.URL.Path == "/v1/telemetry" {
			if ok, secs := s.bucket.take(time.Now()); !ok {
				s.shedRate.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeErr(w, http.StatusTooManyRequests, "ingest rate exceeded, retry in %ds", secs)
				return
			}
		}
		if s.admit == nil {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
			next.ServeHTTP(w, r)
		default:
			s.shedInflight.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable,
				"at capacity (%d requests in flight); retry later", s.cfg.MaxInflight)
		}
	})
}

// withDeadline attaches the configured per-request deadline to the request
// context. Handlers observe it wherever they block or cross a phase
// boundary (training checks it before fetch and before publish).
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withObservability is the outermost HTTP middleware: it assigns (or
// propagates) a request id, tracks in-flight requests, records per-endpoint
// latency and status-code metrics, and emits one structured access-log line.
// With nil Metrics and nil Logger every hook degrades to a no-op, leaving
// only the id header and a timestamp read on the hot path.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		s.httpInFlight.Add(1)
		start := time.Now()
		// Deferred, so a handler that aborts its connection
		// (http.ErrAbortHandler) is still counted, logged and taken off the
		// in-flight gauge on its way out.
		defer func() {
			elapsed := time.Since(start)
			s.httpInFlight.Add(-1)
			if sw.code == 0 {
				sw.code = http.StatusOK
			}
			ep := endpointLabel(r)
			s.httpReqs.With(ep, strconv.Itoa(sw.code)).Inc()
			s.httpDur.With(ep).Observe(elapsed.Seconds())
			if s.log != nil {
				s.log.Info("http request",
					"method", r.Method, "path", r.URL.Path, "status", sw.code,
					"bytes", sw.bytes, "duration", elapsed,
					"request_id", id, "remote", r.RemoteAddr)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
