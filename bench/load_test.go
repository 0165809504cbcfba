package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop must charge a server stall to every request that was due
// during it. A generator that waited for each reply before sending the next
// (coordinated omission) would see one slow request and ~99 fast ones.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(500 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.close()

	var rec recorder
	lag := openLoop(c, 1, 100, time.Second, spinWindow, func(int) call {
		return call{method: "GET", url: srv.URL}
	}, &rec)
	if rec.sent() != 100 || rec.failed != 0 {
		t.Fatalf("sent %d failed %d, want 100 and 0 (%v)", rec.sent(), rec.failed, rec.firstErr)
	}
	slow, worst := 0, 0.0
	for _, l := range rec.lat {
		if l > 100 {
			slow++
		}
		worst = max(worst, l)
	}
	// Requests due in the 400 ms after the stall began each waited more
	// than 100 ms for the one connection.
	if slow < 30 || worst < 450 {
		t.Errorf("%d requests over 100 ms, worst %.0f ms; the stall was not charged from the due time", slow, worst)
	}
	// The generator itself must have kept its schedule through the stall:
	// had it waited for the server, half its sends would be 100 to 500 ms
	// late. (The threshold leaves room for a busy test machine.)
	if late, _ := pick(lag, 90); late > 100 {
		t.Errorf("generator lag p90 %.0f ms: the scheduler waited for the server", late)
	}
}

func TestPickRefusesUnsupportedPercentiles(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 99, false, 0},
		{1000, 99, true, 990},
		{99, 90, false, 0},
		{100, 90, true, 90},
		{19, 50, false, 0},
		{20, 50, true, 10},
	} {
		got, ok := pick(samples[:tc.n], tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("pick(%d samples, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// A call that fails — by status, by transport or by its check — is counted
// as failed and leaves no latency sample.
func TestFailedCallsAreCounted(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1)%4 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprint(w, "{}")
	}))
	c := newClient(2)
	defer c.close()

	var rec recorder
	openLoop(c, 2, 200, 200*time.Millisecond, 0, func(i int) call {
		cl := call{method: "GET", url: srv.URL}
		if i == 0 {
			cl.check = func(int, []byte) error { return fmt.Errorf("oracle mismatch") }
		}
		return cl
	}, &rec)
	if rec.sent() != 40 || rec.failed != 11 || rec.ok() != 29 {
		t.Errorf("sent %d failed %d ok %d, want 40, 11 (ten 503s and one failed check), 29", rec.sent(), rec.failed, rec.ok())
	}
	srv.Close()
	var buf bytes.Buffer
	if err := c.do(call{method: "GET", url: srv.URL}, &buf); err == nil {
		t.Error("a refused connection did not fail the call")
	}
}

// The same seed must give byte-identical request sequences, whichever
// goroutine asks for request i; another seed must give other requests.
func TestSameSeedSameRequests(t *testing.T) {
	def, _ := findWorkload("mixed-fleet")
	sequence := func(seed int64) []byte {
		r := &runner{def: def, seed: seed}
		for i, td := range def.tenants {
			fx, err := buildFixture(td.app, seed+int64(i), def.trainWindows)
			if err != nil {
				t.Fatal(err)
			}
			r.targets = append(r.targets, &target{id: td.id, url: "/" + td.id, fx: fx})
		}
		r.buildPools()
		var out bytes.Buffer
		for i := 499; i >= 0; i-- { // out of order on purpose
			cl := r.read(streamOpen, i)
			fmt.Fprintf(&out, "%d %s %s\n", i, cl.url, cl.body)
		}
		for _, tg := range r.targets {
			out.Write(tg.fx.chunks[0])
		}
		return out.Bytes()
	}
	a, b, c := sequence(7), sequence(7), sequence(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different request sequences")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds gave the same request sequence")
	}
	// The read mix is what the workload says: one read in 50 is distinct.
	distinct := 0
	r := &runner{def: def, seed: 7}
	for i := 0; i < 5000; i++ {
		if r.distinct(streamOpen, i) {
			distinct++
		}
	}
	if distinct != 100 {
		t.Errorf("%d of 5000 reads are distinct, want 100", distinct)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// BENCHMARK.json and the harness must name the same workloads, and every
// metric must be listed once.
func TestSpecMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(gated()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness gates %d", len(spec.Workloads), len(gated()))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated()[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, gated()[i].name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}
