package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request the load generator issues and checks.
type call struct {
	method string
	url    string
	body   []byte
	// check validates the response; a non-nil error counts the call as failed.
	check func(status int, resp []byte) error
}

// client sends calls over a bounded set of keep-alive connections.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one call, reads the whole response into buf and runs the check.
func (c *client) do(cl call, buf *bytes.Buffer) error {
	var body io.Reader
	if cl.body != nil {
		body = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, cl.url, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: read body: %w", cl.method, cl.url, err)
	}
	if cl.check == nil {
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", cl.method, cl.url, resp.StatusCode, snippet(buf.Bytes()))
		}
		return nil
	}
	if err := cl.check(resp.StatusCode, buf.Bytes()); err != nil {
		return fmt.Errorf("%s %s: %w", cl.method, cl.url, err)
	}
	return nil
}

func snippet(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// recorder collects the outcome of every call of one kind in one phase.
// Failed calls have no latency sample: they are counted, and any failure
// fails the run, so a latency figure never hides one.
type recorder struct {
	mu       sync.Mutex
	lat      []float64 // milliseconds, successful calls
	failed   int
	firstErr error
}

func (r *recorder) add(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, ms(d))
}

func (r *recorder) ok() int   { return len(r.lat) }
func (r *recorder) sent() int { return len(r.lat) + r.failed }

// minSamples is the fewest samples that support percentile p: ten samples
// must lie beyond it, so a p99 over a hundred requests is refused instead
// of reporting the maximum under another name.
func minSamples(p float64) int {
	n := 10 / (1 - p/100)
	return int(n + 0.5)
}

// pick returns percentile p (nearest rank) of samples, or false when there
// are too few samples to support it.
func pick(samples []float64, p float64) (float64, bool) {
	if len(samples) < minSamples(p) {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// Nearest rank: the smallest value with at least p % of the samples at
	// or below it. p*n is formed before dividing so that whole ranks stay
	// whole in floating point.
	rank := int(math.Ceil(p*float64(len(s))/100)) - 1
	return s[max(rank, 0)], true
}

// median is the plain middle value, for within-run medians of a handful of
// timings (set-ups, learns) where pick's ten-beyond rule does not apply.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spinWindow is how long before a due time the generator stops sleeping and
// spins. On the virtual machines this runs on a timer wakes 0.5 ms late at
// the median and 1.5 ms at p99, idle; an open loop charges that lateness to
// the system under test, and a cache hit takes less than it.
const spinWindow = 2 * time.Millisecond

// sleepUntil returns at t: it sleeps to spin before t and spins the rest.
func sleepUntil(t time.Time, spin time.Duration) {
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
	}
}

// openLoop issues next(i) at start+i/rate for every i whose due time falls
// within dur, whether or not earlier calls have returned, over conns
// workers. Each call is timed from the instant it was due, so a stall in
// the server is charged to every call that was due during it. spin is how
// long before each due time the scheduler spins instead of sleeping; two
// spinning loops in one process delay each other, so only the loop whose
// latencies are finer than a timer wake-up spins. It returns how late each
// call was handed to a worker queue (generator lag, ms).
func openLoop(c *client, conns int, rate float64, dur, spin time.Duration, next func(i int) call, rec *recorder) []float64 {
	type job struct {
		cl  call
		due time.Time
	}
	n := int(dur.Seconds() * rate)
	// Sized to the number of sends: the scheduler must never block on a
	// slow server, or the loop would close.
	work := make(chan job, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range work {
				err := c.do(j.cl, &buf)
				rec.add(time.Since(j.due), err)
			}
		}()
	}
	lag := make([]float64, 0, n)
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		cl := next(i)
		due := start.Add(time.Duration(i) * gap)
		sleepUntil(due, spin)
		lag = append(lag, ms(time.Since(due)))
		work <- job{cl, due}
	}
	close(work)
	wg.Wait()
	return lag
}

// closedLoop runs conns clients for dur, each sending its next call only
// after the previous one returned. It returns the wall time until the last
// client finished.
func closedLoop(c *client, conns int, dur time.Duration, next func(i int) call, rec *recorder) time.Duration {
	var seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				cl := next(int(seq.Add(1) - 1))
				t0 := time.Now()
				err := c.do(cl, &buf)
				rec.add(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
