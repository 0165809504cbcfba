package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Completed jobs.").Add(7)
	r.GaugeVec("queue_depth", "Queue depth per shard.", "shard").With("s1").Set(3.5)
	h := r.HistogramVec("req_seconds", "Request latency.", []float64{0.1, 1}, "endpoint")
	h.With("/x").Observe(0.05)
	h.With("/x").Observe(0.5)
	h.With("/x").Observe(5)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP jobs_total Completed jobs.\n# TYPE jobs_total counter\njobs_total 7\n",
		"# TYPE queue_depth gauge\nqueue_depth{shard=\"s1\"} 3.5\n",
		"# TYPE req_seconds histogram\n",
		`req_seconds_bucket{endpoint="/x",le="0.1"} 1`,
		`req_seconds_bucket{endpoint="/x",le="1"} 2`,
		`req_seconds_bucket{endpoint="/x",le="+Inf"} 3`,
		`req_seconds_sum{endpoint="/x"} 5.55`,
		`req_seconds_count{endpoint="/x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestExpositionDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("z_total", "z", "l")
	v.With("b").Inc()
	v.With("a").Inc()
	r.Counter("a_total", "a").Inc()
	out := scrape(t, r)
	// Families sorted by name, children sorted by label values.
	if !(strings.Index(out, "a_total") < strings.Index(out, "z_total")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if !(strings.Index(out, `z_total{l="a"}`) < strings.Index(out, `z_total{l="b"}`)) {
		t.Fatalf("children not sorted:\n%s", out)
	}
	if out != scrape(t, r) {
		t.Fatal("two scrapes of an idle registry differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "e", "v").With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", out)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body = %s", body)
	}
	if err := Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

// TestLintRejectsMalformed feeds the validator hand-broken expositions; each
// must be rejected, or the /metrics grammar test proves nothing.
func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_total 1\n",
		"bad metric name":     "# TYPE bad-name counter\nbad-name 1\n",
		"bad label name":      "# TYPE m counter\nm{bad-label=\"x\"} 1\n",
		"bad value":           "# TYPE m counter\nm notanumber\n",
		"duplicate TYPE":      "# TYPE m counter\nm 1\n# TYPE m counter\nm 2\n",
		"split family": "# TYPE m counter\nm{l=\"a\"} 1\n" +
			"# TYPE other counter\nother 1\n" +
			"# TYPE m counter\nm{l=\"b\"} 1\n",
		"help after type":    "# TYPE m counter\n# HELP m text\nm 1\n",
		"unknown type":       "# TYPE m banana\nm 1\n",
		"unterminated label": "# TYPE m counter\nm{l=\"x} 1\n",
		"histogram without inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram non-monotone": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram le out of order": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 7\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, in := range cases {
		if err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted malformed input:\n%s", name, in)
		}
	}
}

func TestLintAcceptsRealWorldShapes(t *testing.T) {
	good := `# HELP up Scrape success.
# TYPE up gauge
up 1
# HELP http_seconds Latency.
# TYPE http_seconds histogram
http_seconds_bucket{code="200",le="0.1"} 2
http_seconds_bucket{code="200",le="+Inf"} 3
http_seconds_sum{code="200"} 1.5
http_seconds_count{code="200"} 3
# TYPE untyped_thing untyped
untyped_thing 42 1712000000
`
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected valid exposition: %v", err)
	}
}
