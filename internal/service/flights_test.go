package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// estimateResponse is the /v1/estimate document as encoding/json marshals
// it: "Component/resource" to the estimate series, and the generation that
// produced them. encodeEstimate must write exactly json.Marshal's bytes of
// toEstimateResponse's value; tests decode responses into it.
type estimateResponse struct {
	Version   int                       `json:"version"`
	Estimates map[string]estimateSeries `json:"estimates"`
}

type estimateSeries struct {
	Exp  []float64 `json:"exp"`
	Low  []float64 `json:"low"`
	Up   []float64 `json:"up"`
	Unit string    `json:"unit"`
}

func toEstimateResponse(version int, est map[app.Pair]estimator.Estimate) estimateResponse {
	resp := estimateResponse{Version: version, Estimates: make(map[string]estimateSeries, len(est))}
	for p, e := range est {
		resp.Estimates[p.String()] = estimateSeries{
			Exp: e.Exp, Low: e.Low, Up: e.Up, Unit: p.Resource.Unit(),
		}
	}
	return resp
}

// learnedFlightFixture trains one generation on an instrumented server and
// returns it with its handler, ready for HTTP requests or direct
// s.estimates.start calls.
func learnedFlightFixture(t *testing.T) (*Server, http.Handler, *pipeline.Generation) {
	t.Helper()
	opts := quickServiceOpts()
	opts.Metrics = obs.NewRegistry()
	opts.Tracer = obs.NewSpanTracer(256, 1)
	s, err := NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 7)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	gen := s.Pipeline().Active()
	if gen == nil {
		t.Fatal("no active generation after learn")
	}
	return s, h, gen
}

func testTraffic(readRPS int) *workload.Traffic {
	return &workload.Traffic{
		Windows:       []map[string]int{{"/read": readRPS, "/write": 4}, {"/read": 2 * readRPS, "/write": 6}},
		WindowSeconds: 60,
		WindowsPerDay: 2,
	}
}

// wantBody is what the handler would serve for the traffic: the generation's
// own estimate, as json.Marshal writes it.
func wantBody(t *testing.T, gen *pipeline.Generation, traffic *workload.Traffic) []byte {
	t.Helper()
	est, err := gen.System.EstimateTraffic(traffic)
	if err != nil {
		t.Fatalf("EstimateTraffic: %v", err)
	}
	body, err := json.Marshal(toEstimateResponse(gen.Version, est))
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// waitRetired blocks until the call filed under key, if any, has completed.
func waitRetired(t *testing.T, tab *estimateTable, key uint64) {
	t.Helper()
	c := tab.filed(key)
	if c == nil {
		return
	}
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned flight never completed")
	}
}

// plant files, under canon's key, a call that runs nothing, so a join is
// deterministic; the test releases it.
func plant(s *Server, gen *pipeline.Generation, canon []byte) *estCall {
	c := &estCall{done: make(chan struct{})}
	s.estimates.mu.Lock()
	s.estimates.file(predKey(gen.Version, canon), canon, c)
	s.estimates.mu.Unlock()
	return c
}

// startAndWait is what handleEstimate does with a canonical body the table
// has not filed.
func startAndWait(ctx context.Context, tab *estimateTable, gen *pipeline.Generation, traffic *workload.Traffic, canon []byte) ([]byte, error) {
	c, _ := tab.start(ctx, gen, traffic, canon, canon)
	return c.wait(ctx)
}

// TestFlightDedupJoinsRunningCall: a request identical to one already in
// flight joins it (counted as a dedup hit) instead of starting a second
// computation.
func TestFlightDedupJoinsRunningCall(t *testing.T) {
	s, _, gen := learnedFlightFixture(t)
	f := s.estimates
	canon := []byte(`{"windows":[{"/read":10}]}`)

	// Plant an in-flight call by hand so the join is deterministic, then
	// release it from another goroutine.
	c := plant(s, gen, canon)
	go func() {
		time.Sleep(5 * time.Millisecond)
		c.body = []byte("joined")
		close(c.done)
	}()

	body, err := startAndWait(context.Background(), f, gen, testTraffic(10), canon)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if string(body) != "joined" {
		t.Fatalf("joined call returned %q, want the in-flight result", body)
	}
	if got := f.joins.Value(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
	if f.len() != 1 {
		t.Fatal("a joiner filed a key; only the call's first caller may")
	}
}

// TestFlightDistinctMissesRunIndependently: N concurrent distinct misses each
// get exactly the body the sequential path produces, and none joins another.
func TestFlightDistinctMissesRunIndependently(t *testing.T) {
	s, _, gen := learnedFlightFixture(t)
	f := s.estimates
	const n = 4
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			canon := []byte(fmt.Sprintf(`{"windows":[{"/read":%d}]}`, 10+i))
			bodies[i], errs[i] = startAndWait(context.Background(), f, gen, testTraffic(10+i), canon)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want := wantBody(t, gen, testTraffic(10+i)); !bytes.Equal(bodies[i], want) {
			t.Fatalf("request %d: concurrent body diverges from the sequential path", i)
		}
	}
	if got := f.joins.Value(); got != 0 {
		t.Fatalf("distinct requests counted %d dedup hits", got)
	}
	if got := f.len(); got != n {
		t.Fatalf("%d table keys after %d distinct flights", got, n)
	}
}

// TestFlightGenerationsNeverJoin: the same canonical body pinned to two
// generations runs as two flights, and each body carries the version of the
// generation it pinned.
func TestFlightGenerationsNeverJoin(t *testing.T) {
	s, _, gen1 := learnedFlightFixture(t)
	gen2, err := s.Pipeline().TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatalf("second generation: %v", err)
	}
	if gen1.Version == gen2.Version {
		t.Fatal("expected two distinct generations")
	}
	f := s.estimates
	canon := []byte(`{"windows":[{"/read":10}]}`)
	gens := []*pipeline.Generation{gen1, gen2}
	bodies := make([][]byte, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i, gen := range gens {
		wg.Add(1)
		go func(i int, gen *pipeline.Generation) {
			defer wg.Done()
			bodies[i], errs[i] = startAndWait(context.Background(), f, gen, testTraffic(10), canon)
		}(i, gen)
	}
	wg.Wait()
	for i, gen := range gens {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		var resp estimateResponse
		if err := json.Unmarshal(bodies[i], &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Version != gen.Version {
			t.Fatalf("call %d answered by version %d, want %d", i, resp.Version, gen.Version)
		}
	}
	if got := f.joins.Value(); got != 0 {
		t.Fatalf("flights of different generations joined (%d dedup hits)", got)
	}
}

// TestFlightTableForgetsOldestKeys: the table holds estimateCacheSize keys,
// running or done, and forgets the oldest first; a caller holding the call of
// a forgotten key still gets its result.
func TestFlightTableForgetsOldestKeys(t *testing.T) {
	s, _, gen := learnedFlightFixture(t)
	req := func(i int) []byte { return []byte(fmt.Sprintf(`{"windows":[{"/read":%d}]}`, i)) }
	first := plant(s, gen, req(0))
	for i := 1; i <= estimateCacheSize; i++ {
		plant(s, gen, req(i))
	}
	if got := s.estimates.len(); got != estimateCacheSize {
		t.Fatalf("%d keys after %d filed, want %d", got, estimateCacheSize+1, estimateCacheSize)
	}
	if s.estimates.filed(predKey(gen.Version, req(0))) != nil || s.estimates.filed(predKey(gen.Version, req(1))) == nil {
		t.Fatal("the table did not forget exactly its oldest key")
	}
	first.body = []byte("kept\n")
	close(first.done)
	if body, err := first.wait(context.Background()); err != nil || string(body) != "kept\n" {
		t.Fatalf("the forgotten key's call answered %q, %v", body, err)
	}
}

// bytesTable is an estimate table with metrics and no generation: the byte
// tests file calls by hand (fileReq) and settle them (settle).
func bytesTable() *estimateTable { return newEstimateTable(nil, obs.NewRegistry()) }

// fileReq files req to c, a new call when c is nil, as start does, and
// returns the call.
func fileReq(tab *estimateTable, req string, c *estCall) *estCall {
	if c == nil {
		c = &estCall{done: make(chan struct{})}
	}
	tab.mu.Lock()
	tab.file(predKey(1, []byte(req)), []byte(req), c)
	tab.mu.Unlock()
	return c
}

// settle completes c with an n-byte body, as run does.
func settle(tab *estimateTable, c *estCall, n int) {
	c.body = make([]byte, n)
	tab.complete(c)
}

func isFiled(tab *estimateTable, req string) bool { return tab.filed(predKey(1, []byte(req))) != nil }

// checkTableBytes recounts what the table retains — every key's request, and
// every success's body once however many keys name it — and fails unless
// that is the table's own count and its gauge's, both bounds hold, and the
// FIFO lists exactly the filed keys. It returns the count.
func checkTableBytes(t *testing.T, tab *estimateTable, what string) int {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	n, bodies := 0, map[*estCall]bool{}
	for _, e := range tab.calls {
		n += len(e.req)
		if e.call.ok && !bodies[e.call] {
			bodies[e.call] = true
			n += len(e.call.body)
		}
	}
	listed := map[uint64]bool{}
	for _, k := range tab.order {
		if _, ok := tab.calls[k]; !ok || listed[k] {
			t.Fatalf("%s: the FIFO lists key %x unfiled or twice", what, k)
		}
		listed[k] = true
	}
	switch {
	case n != tab.bytes || tab.retained.Value() != float64(n):
		t.Fatalf("%s: the table counts %d bytes and its gauge %v, its keys hold %d", what, tab.bytes, tab.retained.Value(), n)
	case n > estimateCacheBytes || len(tab.calls) > estimateCacheSize:
		t.Fatalf("%s: %d bytes under %d keys, over the bounds %d and %d", what, n, len(tab.calls), estimateCacheBytes, estimateCacheSize)
	case len(listed) != len(tab.calls):
		t.Fatalf("%s: the FIFO lists %d of %d keys", what, len(listed), len(tab.calls))
	}
	return n
}

// TestFlightTableBoundsBytes: over a seeded mix of new calls, second
// spellings, hits, successes with bodies from empty to over the whole budget,
// and failures, the table's count is what its keys hold, and that never
// exceeds estimateCacheBytes after any file or completion.
func TestFlightTableBoundsBytes(t *testing.T) {
	const kb, mb = 1 << 10, 1 << 20
	rng := rand.New(rand.NewSource(1))
	tab := bytesTable()
	var running, done []*estCall
	var reqs []string
	pick := func(cs []*estCall) (*estCall, []*estCall) {
		i := rng.Intn(len(cs))
		c := cs[i]
		return c, append(cs[:i], cs[i+1:]...)
	}
	peak := 0
	for i := range 300 {
		req := fmt.Sprintf("%d:%s", i, strings.Repeat("x", rng.Intn(16*kb)))
		switch op := rng.Intn(5); {
		case op == 0 || len(running) == 0:
			running = append(running, fileReq(tab, req, nil))
			reqs = append(reqs, req)
		case op == 1 && len(done) > 0:
			fileReq(tab, req, done[rng.Intn(len(done))])
			reqs = append(reqs, req)
		case op == 2:
			fileReq(tab, req, running[rng.Intn(len(running))])
			reqs = append(reqs, req)
		case op == 3:
			r := reqs[rng.Intn(len(reqs))]
			tab.find(predKey(1, []byte(r)), []byte(r))
		default:
			var c *estCall
			c, running = pick(running)
			switch rng.Intn(8) {
			case 0:
				c.err = errors.New("refused")
				tab.complete(c)
			case 1:
				settle(tab, c, estimateCacheBytes+1+rng.Intn(kb))
			default:
				settle(tab, c, rng.Intn(2*mb))
				done = append(done, c)
			}
			if len(done) > 16 {
				_, done = pick(done)
			}
		}
		if len(reqs) > 64 {
			reqs = reqs[1:]
		}
		peak = max(peak, checkTableBytes(t, tab, fmt.Sprintf("op %d", i)))
	}
	if peak <= estimateCacheBytes-2*mb {
		t.Fatalf("the table peaked at %d bytes: the byte bound was never pressed", peak)
	}
}

// TestFlightTableChargesBodiesOnceOldestFirst: a call's body is charged once
// for its two spellings, whether the second is filed while it runs or once
// it is done, and a completion over the budget forgets the oldest keys, as
// many as it takes.
func TestFlightTableChargesBodiesOnceOldestFirst(t *testing.T) {
	const mb = 1 << 20
	tab := bytesTable()
	a := fileReq(tab, "a", nil)
	fileReq(tab, "a respelled", a)
	settle(tab, a, 3*mb)
	fileReq(tab, "a done", a)
	if got, want := checkTableBytes(t, tab, "a"), len("a")+len("a respelled")+len("a done")+3*mb; got != want {
		t.Fatalf("one call under three spellings retains %d bytes, want %d", got, want)
	}
	settle(tab, fileReq(tab, "b", nil), 3*mb)
	settle(tab, fileReq(tab, "c", nil), 3*mb)
	for _, r := range []string{"a", "a respelled", "a done", "b", "c"} {
		if isFiled(tab, r) != (r == "b" || r == "c") {
			t.Fatalf("after a third 3 MiB body %s is filed %v; want only a's keys forgotten", r, isFiled(tab, r))
		}
	}
	if got, want := checkTableBytes(t, tab, "c"), len("bc")+6*mb; got != want {
		t.Fatalf("after a third 3 MiB body the table holds %d bytes, want %d", got, want)
	}
}

// TestFlightTableFailedCallReturnsBytes: a failed call's keys, both
// spellings, leave the table with their bytes, and nothing else goes.
func TestFlightTableFailedCallReturnsBytes(t *testing.T) {
	tab := bytesTable()
	settle(tab, fileReq(tab, "kept", nil), 1<<20)
	before := checkTableBytes(t, tab, "kept")
	c := fileReq(tab, "refused", nil)
	fileReq(tab, "refused respelled", c)
	c.err = errors.New("refused")
	tab.complete(c)
	if got := checkTableBytes(t, tab, "refused"); got != before || isFiled(tab, "refused") || isFiled(tab, "refused respelled") || !isFiled(tab, "kept") {
		t.Fatalf("after a failed call the table holds %d bytes, want %d and only the kept key", got, before)
	}
}

// TestFlightTableBytesConcurrent: workers filing, respelling, settling and
// hitting calls at once, with bodies that press the byte bound, leave the
// table's count what its keys hold (and give the race detector every path of
// the accounting).
func TestFlightTableBytesConcurrent(t *testing.T) {
	tab := bytesTable()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 16 {
				req := fmt.Sprintf("%d/%d", w, i)
				c := fileReq(tab, req, nil)
				fileReq(tab, req+" respelled", c)
				if i%5 == 4 {
					c.err = errors.New("refused")
					tab.complete(c)
				} else {
					settle(tab, c, 1<<19)
				}
				if body, err := c.wait(context.Background()); (err == nil) != (i%5 != 4) || len(body) != len(c.body) {
					t.Errorf("%s answered %d bytes, %v", req, len(body), err)
				}
				tab.find(predKey(1, []byte(req)), []byte(req))
			}
		}()
	}
	wg.Wait()
	if n := checkTableBytes(t, tab, "after the workers"); n <= estimateCacheBytes-1<<20 {
		t.Fatalf("the table ends at %d bytes: the byte bound was never pressed", n)
	}
}

// TestFlightTableOverBudgetBodyAnswers: a body larger than the whole budget
// answers its waiter but is not retained and forgets no other key; neither
// is a request larger than the budget.
func TestFlightTableOverBudgetBodyAnswers(t *testing.T) {
	tab := bytesTable()
	settle(tab, fileReq(tab, "a", nil), 1<<20)
	settle(tab, fileReq(tab, "b", nil), 1<<20)
	before := checkTableBytes(t, tab, "a, b")
	c := fileReq(tab, "big", nil)
	settle(tab, c, estimateCacheBytes+1)
	if body, err := c.wait(context.Background()); err != nil || len(body) != estimateCacheBytes+1 {
		t.Fatalf("the over-budget call answered %d bytes, %v", len(body), err)
	}
	if got := checkTableBytes(t, tab, "big body"); got != before || isFiled(tab, "big") || !isFiled(tab, "a") || !isFiled(tab, "b") {
		t.Fatalf("after an over-budget body the table holds %d bytes, want %d and a and b filed", got, before)
	}
	huge := strings.Repeat("x", estimateCacheBytes+1)
	fileReq(tab, huge, nil)
	if got := checkTableBytes(t, tab, "big request"); got != before || isFiled(tab, huge) || !isFiled(tab, "a") || !isFiled(tab, "b") {
		t.Fatalf("after an over-budget request the table holds %d bytes, want %d and a and b filed", got, before)
	}
}

// TestFailedFlightTakesEveryKey: a call that fails removes its canonical key
// and every spelling filed to it before it releases a waiter, so the table
// holds nothing of it.
func TestFailedFlightTakesEveryKey(t *testing.T) {
	s, h, gen := learnedFlightFixture(t)
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/read":3}]}`)); rec.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", rec.Code, rec.Body)
	}
	bias := gen.System.Model().Experts[gen.System.Pairs()[0]].Head.B.Data
	saved := bias[0]
	bias[0] = math.NaN()
	defer func() { bias[0] = saved }()
	respelled := `{ "windows": [ {"/read": 7} ] }`
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(respelled)); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("NaN estimate = %d: %s", rec.Code, rec.Body)
	}
	tab := s.estimates
	tab.mu.Lock()
	keys, order := len(tab.calls), len(tab.order)
	tab.mu.Unlock()
	if keys != 1 || order != 1 {
		t.Fatalf("after a failed call the table holds %d keys in a FIFO of %d, want the one good key", keys, order)
	}
}

// abandonAttempts bounds how often the two tests below retry (with a fresh
// body) until a pre-cancelled caller observes its context first: when the
// flight finishes before the caller reaches its select, Go picks between the
// two ready cases at random and a 200 is as legitimate as a 504. The long
// day makes that rare; the retry makes the tests deterministic.
const abandonAttempts = 20

// longDay is a distinct many-window request per attempt.
func longDay(attempt int) estimateRequest {
	req := estimateRequest{Windows: make([]map[string]int, 400)}
	for w := range req.Windows {
		req.Windows[w] = map[string]int{"/read": 10 + attempt + w%50, "/write": 4}
	}
	return req
}

// TestFlightWaiterHonorsContext checks an abandoned caller unblocks on its
// own context while the flight itself still completes.
func TestFlightWaiterHonorsContext(t *testing.T) {
	s, _, gen := learnedFlightFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for attempt := 0; attempt < abandonAttempts; attempt++ {
		req := longDay(attempt)
		canon, _ := json.Marshal(req)
		key := predKey(gen.Version, canon)
		traffic := &workload.Traffic{Windows: req.Windows, WindowSeconds: 60, WindowsPerDay: len(req.Windows)}
		_, err := startAndWait(ctx, s.estimates, gen, traffic, canon)
		waitRetired(t, s.estimates, key)
		if err == context.Canceled {
			return
		}
		if err != nil {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	t.Fatalf("a cancelled caller never saw context.Canceled in %d attempts", abandonAttempts)
}

// TestAbandonedEstimateFillsCache: when the only caller of a miss gives up
// (504), the detached flight still caches its result, so the retry is a hit
// and the whole episode cost exactly one miss.
func TestAbandonedEstimateFillsCache(t *testing.T) {
	s, h, gen := learnedFlightFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for attempt := 0; attempt < abandonAttempts; attempt++ {
		canon, _ := json.Marshal(longDay(attempt))
		missesBefore := s.estimates.misses.Value()

		req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(canon)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			continue // the flight won the race; nobody was abandoned
		}
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("abandoned estimate = %d, want 504: %s", rec.Code, rec.Body)
		}
		waitRetired(t, s.estimates, predKey(gen.Version, canon))

		retry := do(t, h, "POST", "/v1/estimate", bytes.NewBuffer(canon))
		if retry.Code != http.StatusOK {
			t.Fatalf("retry = %d: %s", retry.Code, retry.Body)
		}
		if got := retry.Header().Get("X-DeepRest-Cache"); got != "hit" {
			t.Fatalf("retry after an abandoned flight not served from cache (header %q)", got)
		}
		if got := s.estimates.misses.Value() - missesBefore; got != 1 {
			t.Fatalf("cache misses rose by %d, want exactly 1", got)
		}
		return
	}
	t.Fatalf("a cancelled request never got 504 in %d attempts", abandonAttempts)
}

// TestMissStagesAreSpansAndOneHistogram: one miss is one service.estimate
// root in /debug/spans with a child per stage — in the order they ran, inside
// the root's interval — and each stage observed once in
// deeprest_estimate_stage_duration_seconds, beside the request-side stages
// (read, lookup, decode, wait); the identical request again is a hit, which
// observes read and lookup once more and records no span.
func TestMissStagesAreSpansAndOneHistogram(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	check := func(when string, reads int) {
		t.Helper()
		root, children := spanTree(t, s, when, "service.estimate")
		if root.Windows != 2 {
			t.Fatalf("%s: service.estimate covers %d windows, want 2", when, root.Windows)
		}
		if got, want := fmt.Sprint(children), "[core.synthesize_features infer.predict service.encode]"; got != want {
			t.Errorf("%s: children of service.estimate = %s, want %s", when, got, want)
		}
		stageCounts(t, h, when, "deeprest_estimate_stage_duration_seconds",
			map[string]int{"read": reads, "lookup": reads, "decode": 1, "wait": 1, "synthesize": 1, "predict": 1, "encode": 1})
	}
	body, _ := json.Marshal(estimateRequest{Windows: testTraffic(10).Windows})
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBuffer(body)); rec.Code != http.StatusOK || rec.Header().Get("X-DeepRest-Cache") != "" {
		t.Fatalf("first estimate = %d (cache %q), want a computed 200", rec.Code, rec.Header().Get("X-DeepRest-Cache"))
	}
	check("after the miss", 1)
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBuffer(body)); rec.Code != http.StatusOK || rec.Header().Get("X-DeepRest-Cache") != "hit" {
		t.Fatalf("second estimate = %d (cache %q), want a hit", rec.Code, rec.Header().Get("X-DeepRest-Cache"))
	}
	check("after the hit", 2)
}

// spanTree reads /debug/spans and returns the one span named name — a clean
// root — with the names of its children, oldest first, each of which must lie
// inside it.
func spanTree(t *testing.T, s *Server, when, name string) (obs.Span, []string) {
	t.Helper()
	var page struct{ Spans []obs.Span }
	rec := do(t, s.opts.Tracer.Handler(), "GET", "/debug/spans", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("%s: /debug/spans: %v", when, err)
	}
	var roots []obs.Span
	for _, sp := range page.Spans {
		if sp.Name == name {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 || roots[0].Parent != 0 || roots[0].Err != "" {
		t.Fatalf("%s: %s spans = %+v, want one clean root", when, name, roots)
	}
	root := roots[0]
	var children []string
	for _, sp := range page.Spans { // oldest first
		if sp.Parent != root.ID {
			continue
		}
		children = append(children, sp.Name)
		if sp.Start.Before(root.Start) || sp.Start.Add(sp.Duration).After(root.Start.Add(root.Duration)) {
			t.Errorf("%s: %s is not inside %s", when, sp.Name, name)
		}
	}
	return root, children
}

// stageCounts scrapes /metrics, lints it, and requires the stage histogram
// family to hold exactly the given series, each with its observation count.
func stageCounts(t *testing.T, h http.Handler, when, family string, want map[string]int) {
	t.Helper()
	scrape := do(t, h, "GET", "/metrics", nil).Body.String()
	if err := obs.Lint(bytes.NewBufferString(scrape)); err != nil {
		t.Fatalf("%s: exposition fails lint: %v", when, err)
	}
	for stage, n := range want {
		if line := fmt.Sprintf("%s_count{stage=%q} %d\n", family, stage, n); !strings.Contains(scrape, line) {
			t.Errorf("%s: scrape is missing %q", when, line)
		}
	}
	if n := strings.Count(scrape, family+"_count{"); n != len(want) {
		t.Errorf("%s: %d %s series, want %d", when, n, family, len(want))
	}
}

// TestSanityStagesAreSpansAndOneHistogram: a sanity check is timed the way a
// computed estimate is — a service.sanity root whose five children are its
// stages in order, the same intervals in
// deeprest_sanity_stage_duration_seconds (one series per stage, none before
// the first check) — and a refused one leaves a root that says why.
func TestSanityStagesAreSpansAndOneHistogram(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	stageCounts(t, h, "before any check", "deeprest_sanity_stage_duration_seconds", nil)
	if rec := do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(`{"from":2,"to":14}`)); rec.Code != http.StatusOK {
		t.Fatalf("sanity = %d: %s", rec.Code, rec.Body)
	}
	root, children := spanTree(t, s, "after the check", "service.sanity")
	if root.Windows != 12 {
		t.Errorf("service.sanity covers %d windows, want 12", root.Windows)
	}
	if got, want := fmt.Sprint(children), "[telemetry.features telemetry.metrics infer.predict anomaly.detect service.encode]"; got != want {
		t.Errorf("children of service.sanity = %s, want %s", got, want)
	}
	stageCounts(t, h, "after the check", "deeprest_sanity_stage_duration_seconds",
		map[string]int{"features": 1, "metrics": 1, "predict": 1, "detect": 1, "encode": 1})

	if rec := do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(`{"from":2,"to":1000}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("sanity past the store = %d: %s", rec.Code, rec.Body)
	}
	var page struct{ Spans []obs.Span }
	rec := do(t, s.opts.Tracer.Handler(), "GET", "/debug/spans?name=service.sanity", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Spans) != 2 || !strings.Contains(page.Spans[1].Err, "out of bounds") {
		t.Errorf("service.sanity spans after a refused check = %+v, want a second one carrying the store's range error", page.Spans)
	}
	stageCounts(t, h, "after the refused check", "deeprest_sanity_stage_duration_seconds",
		map[string]int{"features": 2, "metrics": 1, "predict": 1, "detect": 1, "encode": 1})
}

// TestInfluenceStagesAreSpansAndOneHistogram: an influence query is timed
// like a sanity check — a service.influence root over the resident windows
// whose three children are its stages in order, the same intervals in
// deeprest_influence_stage_duration_seconds (none before the first query) —
// and one the model refuses leaves a root that says why.
func TestInfluenceStagesAreSpansAndOneHistogram(t *testing.T) {
	s, h, _ := learnedFlightFixture(t)
	stageCounts(t, h, "before any query", "deeprest_influence_stage_duration_seconds", nil)
	if rec := do(t, h, "GET", "/v1/influence?pair=Service/cpu", nil); rec.Code != http.StatusOK {
		t.Fatalf("influence = %d: %s", rec.Code, rec.Body)
	}
	root, children := spanTree(t, s, "after the query", "service.influence")
	if want := s.store.NumWindows() - s.store.OldestWindow(); root.Windows != want {
		t.Errorf("service.influence covers %d windows, want the %d resident", root.Windows, want)
	}
	if got, want := fmt.Sprint(children), "[telemetry.features estimator.probe service.encode]"; got != want {
		t.Errorf("children of service.influence = %s, want %s", got, want)
	}
	stageCounts(t, h, "after the query", "deeprest_influence_stage_duration_seconds",
		map[string]int{"features": 1, "probe": 1, "encode": 1})

	if rec := do(t, h, "GET", "/v1/influence?pair=Nowhere/cpu", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("influence of an unknown pair = %d: %s", rec.Code, rec.Body)
	}
	var page struct{ Spans []obs.Span }
	rec := do(t, s.opts.Tracer.Handler(), "GET", "/debug/spans?name=service.influence", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Spans) != 2 || page.Spans[1].Err == "" {
		t.Errorf("service.influence spans after a refused query = %+v, want a second one carrying the model's error", page.Spans)
	}
	stageCounts(t, h, "after the refused query", "deeprest_influence_stage_duration_seconds",
		map[string]int{"features": 2, "probe": 2, "encode": 1})
}

// TestMissEncodesInNameOrder: misses on a generation whose pairs are not in
// name order serve exactly json.Marshal's bytes, so the order the generation
// sorts once (SortedPairs) names each estimate with its own pair.
func TestMissEncodesInNameOrder(t *testing.T) {
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 7)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["DB/memory","DB/disk_usage","Gateway/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	gen := s.Pipeline().Active()
	if ps := gen.System.Pairs(); slices.IsSortedFunc(ps, func(a, b app.Pair) int { return strings.Compare(a.String(), b.String()) }) {
		t.Fatalf("the generation's pairs %v are in name order: nothing to sort", ps)
	}
	for i := range 2 {
		canon := []byte(fmt.Sprintf(`{"windows":[{"/read":%d}]}`, 10+i))
		body, err := startAndWait(context.Background(), s.estimates, gen, testTraffic(10+i), canon)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantBody(t, gen, testTraffic(10+i)); !bytes.Equal(body, want) {
			t.Fatalf("miss %d served\n%s\nwant\n%s", i, body, want)
		}
	}
}

// TestEncodeSortedRefusesOtherPairs: an estimate map that lacks one of the
// generation's sorted pairs, or holds one more, is an error, never a
// response with a zero estimate in it or a pair left out.
func TestEncodeSortedRefusesOtherPairs(t *testing.T) {
	a := app.Pair{Component: "A", Resource: app.AllResources[0]}
	b := app.Pair{Component: "B", Resource: app.AllResources[0]}
	e := estimator.Estimate{Exp: []float64{1}, Low: []float64{0}, Up: []float64{2}}
	pairs := []app.Pair{a}
	names := app.SortByName(pairs)
	for what, est := range map[string]map[app.Pair]estimator.Estimate{
		"another pair": {b: e},
		"one more":     {a: e, b: e},
	} {
		if body, err := encodeSorted(1, pairs, names, est); err == nil {
			t.Errorf("%s: encoded %q", what, body)
		}
	}
	if _, err := encodeSorted(1, pairs, names, map[app.Pair]estimator.Estimate{a: e}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeEstimateMatchesMarshal is the encoder's byte wall: for random
// estimates over component names that need escaping (HTML bytes, quotes,
// controls, U+2028, invalid UTF-8) and floats on both sides of each switch of
// encoding/json's number format, encodeEstimate writes exactly
// json.Marshal(toEstimateResponse(…)) and a newline, in a buffer exactly as
// long; a NaN or an infinity anywhere is an error to both.
func TestEncodeEstimateMatchesMarshal(t *testing.T) {
	names := []string{"Gateway00", "<script>", "a&b", "a<b", "line\u2028sep", "para\u2029", "bad\xffutf8", `quote"back\slash`,
		"tab\tnew\nline\x01", "del\x7f", "émoji😀", ">", "Mongo-DB_1.2"}
	edges := []float64{9.99e-7, 1e-6, 1e21, 5e-324, math.Copysign(0, -1), 1.5e300, 0, 1, -1e-7, 999999999999999900000,
		1e20, -1e21, 123.456, 0.000001, 1e-300, -2.5e-10, math.MaxFloat64, math.SmallestNonzeroFloat64 * 3}
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	series := func() []float64 {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		s := make([]float64, rng.Intn(14))
		for i := range s {
			s[i] = draw()
		}
		return s
	}
	check := func(what string, version int, est map[app.Pair]estimator.Estimate) {
		t.Helper()
		want, werr := json.Marshal(toEstimateResponse(version, est))
		got, gerr := encodeEstimate(version, est)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s: json.Marshal error %v, encodeEstimate error %v", what, werr, gerr)
		}
		if werr != nil {
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: a %d-byte body in a %d-byte buffer", what, len(got), cap(got))
		}
	}
	check("no pairs", 0, map[app.Pair]estimator.Estimate{})
	for round := 0; round < 300; round++ {
		est := map[app.Pair]estimator.Estimate{}
		for n := rng.Intn(8); n >= 0; n-- {
			p := app.Pair{Component: names[rng.Intn(len(names))], Resource: app.AllResources[rng.Intn(len(app.AllResources))]}
			est[p] = estimator.Estimate{Exp: series(), Low: series(), Up: series()}
		}
		check(fmt.Sprintf("round %d", round), rng.Intn(1000), est)
		if round%10 == 0 {
			for p, e := range est {
				if len(e.Up) > 0 {
					e.Up[rng.Intn(len(e.Up))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					check(fmt.Sprintf("round %d, non-finite in %s", round, p), 1, est)
				}
				break
			}
		}
	}
}

// TestNaNEstimateAnswers422Uncached: a generation whose estimate comes out NaN
// (its head bias poisoned in place, which the engine reads) answers 422 and
// caches nothing — the same body again is a second miss, not a hit — and once
// the weight is restored the answer is 200, cached at exactly its length.
func TestNaNEstimateAnswers422Uncached(t *testing.T) {
	s, h, gen := learnedFlightFixture(t)
	bias := gen.System.Model().Experts[gen.System.Pairs()[0]].Head.B.Data
	saved := bias[0]
	bias[0] = math.NaN()
	body := `{"windows":[{"/read":7}]}`
	misses := s.estimates.misses.Value()
	for i := 0; i < 2; i++ {
		rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body))
		if rec.Code != http.StatusUnprocessableEntity || rec.Header().Get("X-DeepRest-Cache") != "" {
			t.Fatalf("NaN estimate, read %d: %d (cache %q) %s, want an uncached 422", i, rec.Code, rec.Header().Get("X-DeepRest-Cache"), rec.Body)
		}
	}
	if got := s.estimates.misses.Value() - misses; got != 2 {
		t.Fatalf("two reads of a NaN estimate were %d misses, want 2", got)
	}
	bias[0] = saved
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body)); rec.Code != http.StatusOK {
		t.Fatalf("restored: %d %s", rec.Code, rec.Body)
	}
	c := s.estimates.filed(predKey(gen.Version, []byte(body)))
	ok := c != nil && c.err == nil
	var cached []byte
	if ok {
		cached = c.body
	}
	if !ok || cap(cached) != len(cached) {
		t.Fatalf("cached body: found %v, %d bytes in a %d-byte buffer", ok, len(cached), cap(cached))
	}
}
