package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/obs"
)

// hitAllocBound is what one warm hit may allocate through the whole handler
// stack, metrics on (the parent decoded and re-marshaled the body first: 643
// at the social shape).
const hitAllocBound = 40

// hitAllocs counts the allocations of one warm read of body, and fails
// unless every one was a hit.
func hitAllocs(t *testing.T, h http.Handler, body []byte) float64 {
	t.Helper()
	w := nopRW{h: make(http.Header)}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/estimate", rd)
	return testing.AllocsPerRun(50, func() {
		delete(w.h, "X-Deeprest-Cache")
		rd.Reset(body)
		h.ServeHTTP(w, req)
		if w.h.Get("X-DeepRest-Cache") != "hit" {
			t.Fatal("a warm read was not a cache hit")
		}
	})
}

// TestEstimateHitAllocs: a repeated read at the social tenant's shape (12
// windows, ~2 KB) is answered from its bytes — no decode, no re-marshal.
func TestEstimateHitAllocs(t *testing.T) {
	opts := quickServiceOpts()
	opts.Metrics = obs.NewRegistry()
	s, body := socialHitFixture(t, opts)
	if n := hitAllocs(t, s.Handler(), body); n > hitAllocBound {
		t.Fatalf("a warm hit allocates %.0f times, want <= %d", n, hitAllocBound)
	}
}

// TestEstimateSpellings: once the canonical request is cached, any spelling
// of it is a hit — its first read by decoding to the canonical entry (no
// miss, no engine pass, the same bytes back), every later read by its own
// bytes, as cheaply as the canonical one.
func TestEstimateSpellings(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	canon := `{"windows":[{"/read":10,"/write":4},{"/read":20,"/write":6}],"windows_per_day":2}`
	first := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(canon))
	if first.Code != http.StatusOK || first.Header().Get("X-DeepRest-Cache") != "" {
		t.Fatalf("first estimate = %d (cache %q), want a computed 200", first.Code, first.Header().Get("X-DeepRest-Cache"))
	}
	misses := s.estimates.misses.Value()
	for i, c := range []struct{ name, body string }{
		{"canonical", canon},
		{"extra whitespace", "{ \"windows\" : [ {\"/read\": 10, \"/write\": 4},\n\t{\"/read\": 20, \"/write\": 6} ], \"windows_per_day\": 2 }\n"},
		{"windows_per_day first", `{"windows_per_day":2,"windows":[{"/read":10,"/write":4},{"/read":20,"/write":6}]}`},
		{"map keys reordered", `{"windows":[{"/write":4,"/read":10},{"/write":6,"/read":20}],"windows_per_day":2}`},
	} {
		rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(c.body))
		if rec.Code != http.StatusOK || rec.Header().Get("X-DeepRest-Cache") != "hit" {
			t.Fatalf("%s: first read = %d (cache %q), want a hit", c.name, rec.Code, rec.Header().Get("X-DeepRest-Cache"))
		}
		if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: body differs from the computed one", c.name)
		}
		if n := hitAllocs(t, h, []byte(c.body)); n > hitAllocBound {
			t.Errorf("%s: a repeated read allocates %.0f times, want <= %d", c.name, n, hitAllocBound)
		}
		// One entry for the canonical request, one per other spelling.
		if got := s.estimates.len(); got != 1+i {
			t.Errorf("%s: %d table keys, want %d", c.name, got, 1+i)
		}
	}
	if got := s.estimates.misses.Value(); got != misses {
		t.Errorf("re-spelled reads counted %d misses", got-misses)
	}
	if got := s.stageDecode.Count(); got != 4 {
		t.Errorf("%d requests were decoded, want 4 (the miss and each new spelling once)", got)
	}
}

// TestRespelledEstimateJoinsFlight: a call is started under the canonical
// form, so a re-spelled request arriving while the canonical one computes
// joins it, and is remembered under its own spelling afterwards.
func TestRespelledEstimateJoinsFlight(t *testing.T) {
	s, h, gen := learnedFlightFixture(t)
	canon := []byte(`{"windows":[{"/read":10}]}`)
	c := plant(s, gen, canon)

	respelled := `{"windows": [{"/read": 10}]}`
	got := make(chan *httptest.ResponseRecorder)
	go func() { got <- do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled)) }()
	for deadline := time.Now().Add(5 * time.Second); s.estimates.joins.Value() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the re-spelled request never joined the canonical flight")
		}
	}
	if s.estimates.filed(predKey(gen.Version, []byte(respelled))) != c {
		t.Fatal("the joiner's spelling was not filed at once as a key to the running call")
	}
	c.body = []byte("joined\n")
	close(c.done)
	rec := <-got
	if rec.Code != http.StatusOK || rec.Body.String() != "joined\n" {
		t.Fatalf("re-spelled request = %d %q, want the in-flight result", rec.Code, rec.Body)
	}
	if d, p := s.estimates.joins.Value(), s.estimates.stageSeconds.With("predict").Count(); d != 1 || p != 0 {
		t.Fatalf("dedup hits = %d, engine passes = %d, want 1 and 0", d, p)
	}
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled)); rec.Header().Get("X-DeepRest-Cache") != "hit" || rec.Body.String() != "joined\n" {
		t.Fatalf("the joiner's spelling was not remembered: %d (cache %q) %q", rec.Code, rec.Header().Get("X-DeepRest-Cache"), rec.Body)
	}
}

// TestHitNeverServesWhatAMissRefuses: the table is asked before the body is
// decoded, so nothing may be in it that validation would refuse — a cached
// body with garbage behind it is different bytes and a 400, and an invalid
// body is a 400 however often it is repeated.
func TestHitNeverServesWhatAMissRefuses(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	good := `{"windows":[{"/read":10}]}`
	for _, body := range []string{good, good} {
		if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body)); rec.Code != http.StatusOK {
			t.Fatalf("estimate = %d: %s", rec.Code, rec.Body)
		}
	}
	entries := s.estimates.len()
	for _, bad := range []string{good + " junk", good + good, `{"windows":[]}`, `{"windows":[{"/read":-1}]}`, `{"windows":`} {
		for attempt := 0; attempt < 3; attempt++ {
			if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(bad)); rec.Code != http.StatusBadRequest {
				t.Errorf("%q, attempt %d = %d (cache %q), want 400", bad, attempt, rec.Code, rec.Header().Get("X-DeepRest-Cache"))
			}
		}
	}
	if got := s.estimates.len(); got != entries {
		t.Errorf("refused requests changed the table: %d entries, was %d", got, entries)
	}
}

// TestNewGenerationInvalidatesSpellings: an alias is keyed by generation like
// the canonical entry it points at.
func TestNewGenerationInvalidatesSpellings(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	respelled := `{"windows": [{"/read": 10}]}`
	for i, want := range []string{"", "hit"} {
		if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled)); rec.Code != http.StatusOK || rec.Header().Get("X-DeepRest-Cache") != want {
			t.Fatalf("read %d = %d (cache %q), want cache %q", i, rec.Code, rec.Header().Get("X-DeepRest-Cache"), want)
		}
	}
	if _, err := s.Pipeline().TrainOnce(0, 0, nil, "manual"); err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled))
	var resp estimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Header().Get("X-DeepRest-Cache") == "hit" || resp.Version != 2 {
		t.Fatalf("after a new generation: cache %q, version %d; want a version-2 recompute", rec.Header().Get("X-DeepRest-Cache"), resp.Version)
	}
}

// TestRequestCostIsBounded: a JSON document is read through one size bound
// on every route that takes one (413), and an estimate, a sanity check or a
// plan prices at most maxReadWindows windows (400 naming the bound) — checked
// before the engine sizes anything from the request, learned or not.
func TestRequestCostIsBounded(t *testing.T) {
	oversize := strings.Repeat(" ", maxBodyBytes) + `{}`
	week := `{"windows":[` + strings.Repeat(`{},`, maxReadWindows-1) + `{}]}`
	tooLong := `{"windows":[` + strings.Repeat(`{},`, maxReadWindows) + `{}]}`
	h := newTestService().Handler()
	for _, c := range []struct {
		path, body string
		code       int
		says       string
	}{
		{"/v1/estimate", oversize, http.StatusRequestEntityTooLarge, "request body too large"},
		{"/v1/learn", oversize, http.StatusRequestEntityTooLarge, "request body too large"},
		{"/v1/sanity", oversize, http.StatusRequestEntityTooLarge, "request body too large"},
		{"/v1/estimate", tooLong, http.StatusBadRequest, fmt.Sprintf("at most %d", maxReadWindows)},
		{"/v1/estimate", week, http.StatusPreconditionFailed, "not learned yet"},
		{"/v1/sanity", fmt.Sprintf(`{"from":3,"to":%d}`, maxReadWindows+4), http.StatusBadRequest, fmt.Sprintf("at most %d", maxReadWindows)},
		{"/v1/sanity", fmt.Sprintf(`{"from":3,"to":%d}`, maxReadWindows+3), http.StatusPreconditionFailed, "not learned yet"},
		{fmt.Sprintf("/v1/autoscale/plan?windows=%d", maxReadWindows+1), "", http.StatusBadRequest, fmt.Sprintf("at most %d", maxReadWindows)},
		{fmt.Sprintf("/v1/autoscale/plan?windows=%d", maxReadWindows), "", http.StatusPreconditionFailed, "not learned yet"},
	} {
		method := "POST"
		if c.body == "" {
			method = "GET"
		}
		rec := do(t, h, method, c.path, bytes.NewBufferString(c.body))
		if rec.Code != c.code || !strings.Contains(rec.Body.String(), c.says) {
			t.Errorf("%s with a %d-byte body = %d %s, want %d %q", c.path, len(c.body), rec.Code, rec.Body, c.code, c.says)
		}
	}
}

// TestInfluenceProbesTheLastWeek: /v1/influence probes the last
// maxReadWindows resident windows, however many more the store holds (under
// the default retention, every window ever ingested).
func TestInfluenceProbesTheLastWeek(t *testing.T) {
	s, h, gen := learnedFlightFixture(t)
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 43, 30, 8)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	n := s.store.NumWindows()
	if n-s.store.OldestWindow() <= maxReadWindows {
		t.Fatalf("%d windows resident, want more than %d", n-s.store.OldestWindow(), maxReadWindows)
	}
	series, err := s.store.Features(gen.Version, gen.System.Extractor(), n-maxReadWindows, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Model().APIInfluence(app.Pair{Component: "Service", Resource: app.CPU}, series)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "GET", "/v1/influence?pair=Service/cpu", nil)
	var got struct {
		Influence map[string]float64 `json:"influence"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
		t.Fatalf("influence = %d: %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(got.Influence, want) {
		t.Errorf("influence over %d resident windows = %v, want the last %d windows' %v", n-s.store.OldestWindow(), got.Influence, maxReadWindows, want)
	}
}

// TestNegativeCountsRefused: a negative request count is a client's sign
// error, not zero traffic; zero itself stays legal.
func TestNegativeCountsRefused(t *testing.T) {
	_, h, _ := learnedFlightFixture(t)
	rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/read":10},{"/read":-5,"/write":1}]}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "window 1") || !strings.Contains(rec.Body.String(), `\"/read\"`) {
		t.Errorf("negative count = %d %s, want 400 naming window 1 and /read", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/read":10},{"/read":0,"/write":1}]}`)); rec.Code != http.StatusOK {
		t.Errorf("zero count = %d %s, want 200", rec.Code, rec.Body)
	}
}

// TestEstimateStatesItsLength: over a real connection an estimate, computed
// or cached, carries Content-Length and is not chunk-framed.
func TestEstimateStatesItsLength(t *testing.T) {
	_, h, _ := learnedFlightFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Long enough that net/http could not buffer the response and count it.
	day, _ := json.Marshal(longDay(0))
	for _, want := range []string{"", "hit"} {
		resp, err := http.Post(srv.URL+"/v1/estimate", "application/json", bytes.NewReader(day))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DeepRest-Cache") != want {
			t.Fatalf("estimate = %d (cache %q), want 200 with cache %q", resp.StatusCode, resp.Header.Get("X-DeepRest-Cache"), want)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) || len(body) == 0 {
			t.Errorf("cache %q: Transfer-Encoding %v, Content-Length %d, body %d bytes; want the length stated", want, resp.TransferEncoding, resp.ContentLength, len(body))
		}
	}
}

// len reports the number of keys in the table.
func (t *estimateTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.calls)
}

// filed returns the call filed under key, or nil, counting nothing.
func (t *estimateTable) filed(key uint64) *estCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[key].call
}
