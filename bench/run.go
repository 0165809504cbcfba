package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Its JSON form is the
// benchmark's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	rounds []round      // per-round figures, for the history
	setups []setupTimes // per-set-up figures, for the history
	notes  []string     // sample counts and per-phase sent/ok/failed, for the table
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runner carries one run of one workload.
type runner struct {
	def       workloadDef
	seed      int64
	seconds   float64
	traced    bool
	setups    int    // set-ups to take the median of
	smoke     bool   // checks only: too short a run to report metrics
	daemonBin string // path of the deeprestd binary
	outDir    string
	conns     int

	side    *client // set-up, pushes, sanity, learn: its own connections
	zipf    []float64
	d       *daemon
	targets []*target

	systems  map[*target]*core.System // each tenant's model, restored in the harness
	sampleMu sync.Mutex
	samples  []oracleSample // first warm-up responses, for the oracle
}

type oracleSample struct {
	t          *target
	body, resp []byte
}

// setupTimes is what one set-up measured.
type setupTimes struct {
	Total     float64 `json:"setup_s"`
	Learn     float64 `json:"learn_s"`
	LearnCPU  float64 `json:"learn_cpu_s"`
	IngestWPS float64 `json:"ingest_windows_per_s"`
	SimMs     float64 `json:"sim_run_ms"`
	TopoMs    float64 `json:"topo_generate_ms"`
}

func (r *runner) fleet() bool { return len(r.def.tenants) > 1 || r.def.tenants[0].id != "" }

// setup builds the fixtures, boots a daemon, pushes the training telemetry
// in chunks, learns every tenant and waits for each tenant's first 200 from
// /v1/estimate. On success r.d and r.targets describe the running daemon.
func (r *runner) setup() (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	args := []string{"-hidden", fmt.Sprint(r.def.hidden), "-epochs", fmt.Sprint(r.def.epochs)}
	args = append(args, r.def.daemonArgs...)
	targets := make([]*target, len(r.def.tenants))
	for i, td := range r.def.tenants {
		fx, err := buildFixture(td.app, r.seed+int64(i), r.def.trainWindows)
		if err != nil {
			return st, err
		}
		st.SimMs += fx.simMs
		st.TopoMs += fx.topoMs
		targets[i] = &target{id: td.id, fx: fx}
	}
	if r.fleet() {
		// Tenants are declared without a spec: they boot empty and learn
		// only what the harness pushes.
		var m fleet.Manifest
		for _, td := range r.def.tenants {
			m.Tenants = append(m.Tenants, fleet.TenantSpec{App: td.id})
		}
		doc, err := json.Marshal(m)
		if err != nil {
			return st, err
		}
		path := filepath.Join(r.outDir, r.def.name+".manifest.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			return st, err
		}
		args = append(args, "-fleet", path)
	}
	d, err := startDaemon(r.daemonBin, filepath.Join(r.outDir, r.def.name+".daemon.log"), args...)
	if err != nil {
		return st, err
	}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()
	for _, t := range targets {
		t.url = d.base
		if r.fleet() {
			t.url += "/v1/t/" + t.id
		}
	}

	var buf bytes.Buffer
	tIngest := time.Now()
	windows := 0
	for k := 0; k < targets[0].fx.trainChunks; k++ {
		for _, t := range targets {
			if err := r.side.do(call{method: "POST", url: t.url + "/v1/telemetry", body: t.fx.chunks[k]}, &buf); err != nil {
				return st, fmt.Errorf("set-up ingest: %w", err)
			}
			windows += chunkWindows
		}
	}
	st.IngestWPS = float64(windows) / time.Since(tIngest).Seconds()

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return st, err
	}
	tLearn := time.Now()
	for _, t := range targets {
		t.maxVersion.Store(1)
		if _, err := r.learn(t, "{}"); err != nil {
			return st, fmt.Errorf("set-up learn: %w", err)
		}
	}
	st.Learn = time.Since(tLearn).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return st, err
	}
	st.LearnCPU = cpu1 - cpu0

	for _, t := range targets {
		var status struct {
			Experts []string `json:"experts"`
		}
		if err := r.side.do(call{method: "GET", url: t.url + "/v1/status"}, &buf); err != nil {
			return st, fmt.Errorf("set-up status: %w", err)
		}
		if err := json.Unmarshal(buf.Bytes(), &status); err != nil || len(status.Experts) == 0 {
			return st, fmt.Errorf("set-up status: no experts (%v)", err)
		}
		t.pairs = status.Experts
		body := t.fx.body(int64(draw(r.seed, streamSetup, 0)>>1), r.def.reqWindows)
		if err := r.side.do(t.estimate(body, -1, r.def.reqWindows, nil), &buf); err != nil {
			return st, fmt.Errorf("set-up estimate: %w", err)
		}
	}
	st.Total = time.Since(t0).Seconds()
	ok = true
	r.d, r.targets = d, targets
	return st, nil
}

// learn posts one /v1/learn and raises the target's version bounds around
// it. It returns the wall time of the call.
func (r *runner) learn(t *target, body string) (time.Duration, error) {
	var buf bytes.Buffer
	var version int64
	t0 := time.Now()
	err := r.side.do(call{method: "POST", url: t.url + "/v1/learn", body: []byte(body),
		check: func(status int, resp []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d: %s", status, snippet(resp))
			}
			var lr struct {
				Version int64 `json:"version"`
				Experts int   `json:"experts"`
			}
			if err := json.Unmarshal(resp, &lr); err != nil || lr.Experts == 0 {
				return fmt.Errorf("learn response %s (%v)", snippet(resp), err)
			}
			version = lr.Version
			return nil
		}}, &buf)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if version > t.maxVersion.Load() {
		return d, fmt.Errorf("learn published version %d, expected at most %d", version, t.maxVersion.Load())
	}
	t.minVersion.Store(version)
	return d, nil
}

// read is request i of a stream: its tenant, and whether it is a hot or a
// distinct body, are a pure function of (seed, stream, i).
func (r *runner) read(stream, i int) call {
	x := draw(r.seed, stream, i)
	t := r.targets[i%len(r.targets)]
	if len(t.pool) > 0 && !r.distinct(stream, i) {
		k := rank(r.zipf, unit(splitmix64(x)))
		return t.estimate(t.pool[k], k, r.def.reqWindows, nil)
	}
	return t.estimate(t.fx.body(int64(x>>1), r.def.reqWindows), -1, r.def.reqWindows, nil)
}

// distinct says whether read i of a stream has a body of its own. On a
// workload with hot pools every missEvery-th read has, starting at an offset
// drawn from the seed: a fixed share and not a random one, so that two runs
// do the same number of misses.
func (r *runner) distinct(stream, i int) bool {
	if r.def.poolSize == 0 {
		return true
	}
	if r.def.missEvery == 0 {
		return false
	}
	return (i+int(draw(r.seed, stream, -1)%uint64(r.def.missEvery)))%r.def.missEvery == 0
}

// buildPools draws every tenant's hot bodies.
func (r *runner) buildPools() {
	r.zipf = zipfCDF(max(r.def.poolSize, 1))
	for ti, t := range r.targets {
		t.pool = make([][]byte, r.def.poolSize)
		t.hot = make([][]byte, r.def.poolSize)
		for k := range t.pool {
			t.pool[k] = t.fx.body(int64(draw(r.seed+int64(ti), streamPool, k)>>1), r.def.reqWindows)
		}
	}
}

// keep stores the first responses of the warm-up, one per body, for the
// oracle.
func (r *runner) keep(t *target, body, resp []byte) {
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	for _, s := range r.samples {
		if s.t == t && bytes.Equal(s.body, body) {
			return
		}
	}
	if len(r.samples) < oracleSamples {
		r.samples = append(r.samples, oracleSample{t, body, append([]byte(nil), resp...)})
	}
}

// phase is the outcome of one kind of call, pooled over the rounds of a run.
type phase struct {
	name string
	rec  recorder
	wall time.Duration
}

func (p *phase) line() string {
	return fmt.Sprintf("%s sent=%d ok=%d failed=%d in %.1f s", p.name, p.rec.sent(), p.rec.ok(), p.rec.failed, p.wall.Seconds())
}

// timed runs fn and adds how long it took to the phase's wall time.
func (p *phase) timed(fn func()) {
	t0 := time.Now()
	fn()
	p.wall += time.Since(t0)
}

func (m *measured) phases() []*phase {
	return []*phase{&m.open, &m.besidePush, &m.besideSanity, &m.closed, &m.push, &m.sanity}
}

// round is what one round of a run measured: each figure is taken over the
// round's own slice of the open-loop, closed-loop and operator phases.
type round struct {
	LatencyP50 float64 `json:"latency_p50_ms"` // open loop
	CPUPerReq  float64 `json:"cpu_ms_per_req"` // open loop
	Steal      float64 `json:"steal_s"`        // taken from the machine by the hypervisor during the open-loop slice
	Reads      int     `json:"reads"`
	// Diagnostic figures of a full run.
	ClosedCPUPerReq float64 `json:"closed_cpu_ms_per_req,omitempty"`
	Throughput      float64 `json:"throughput_rps,omitempty"`
	IngestP50       float64 `json:"ingest_p50_ms,omitempty"`
	SanityP50       float64 `json:"sanity_p50_ms,omitempty"`
}

// measured is everything the socket phases of a run produced.
type measured struct {
	open, closed, push, sanity phase
	besidePush, besideSanity   phase       // fleet only: writes and sanity checks beside the open-loop reads
	rounds                     []round     // one entry per round
	pushLat, sanityLat         [][]float64 // operator phase latencies per tenant, ms
	lag                        []float64   // open-loop read generator lag, ms
	learns, learnCPUs          []float64   // learns posted beside the reads, seconds
	openCPU                    float64     // daemon CPU seconds over the open-loop slices
	daemonCPU, selfCPU         float64     // over all phases
	machine                    machineCPU  // the whole machine over all phases
	rssMB                      float64
	unheated                   bool // the kernel refused the heaters
	got429                     int64
	scrape                     map[string]float64 // /metrics deltas over all phases
}

// tenantMedians is the mean over tenants of each tenant's median latency,
// over the samples from index from[tenant] on. Tenants differ in size, so the
// median of their pooled latencies would be the middle tenant's and would
// jump whenever two tenants' figures crossed.
func tenantMedians(lat [][]float64, from []int) float64 {
	sum := 0.0
	for ti, l := range lat {
		sum += median(l[from[ti]:])
	}
	return sum / float64(len(lat))
}

func lengths(lat [][]float64) []int {
	out := make([]int, len(lat))
	for i, l := range lat {
		out[i] = len(l)
	}
	return out
}

// column returns one figure of every round.
func (m *measured) column(f func(round) float64) []float64 {
	out := make([]float64, len(m.rounds))
	for i, rd := range m.rounds {
		out[i] = f(rd)
	}
	return out
}

// warmUp runs the discarded calls before the phases: every hot body once, so
// the response cache is filled; otherwise five distinct reads per connection.
// One push and one sanity check per tenant warm the write path.
func (r *runner) warmUp(reads *client, got429 *int64) error {
	var warm recorder
	r.buildPools()
	warmCalls := max(5*r.conns, r.def.poolSize*len(r.targets))
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(seq.Add(1) - 1)
				if i >= warmCalls {
					return
				}
				t := r.targets[i%len(r.targets)]
				var cl call
				if r.def.poolSize > 0 {
					k := i / len(r.targets) % r.def.poolSize
					cl = t.estimate(t.pool[k], k, r.def.reqWindows, r.keep)
				} else {
					cl = t.estimate(t.fx.body(int64(draw(r.seed, streamWarm, i)>>1), r.def.reqWindows), -1, r.def.reqWindows, r.keep)
				}
				warm.add(0, reads.do(cl, &buf))
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	for _, t := range r.targets {
		warm.add(0, r.side.do(t.push(got429), &buf))
		warm.add(0, r.side.do(t.sanity(), &buf))
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d calls failed, first: %w", warm.failed, warm.firstErr)
	}
	return nil
}

// learnBeside posts one /v1/learn after another for dur, beside the reads.
func (r *runner) learnBeside(m *measured, dur time.Duration) error {
	t := r.targets[0]
	body := fmt.Sprintf(`{"to":%d}`, r.def.trainWindows)
	start := time.Now()
	last := time.Duration(0)
	// A learn starts only if the previous one's duration still fits, so the
	// phase overruns by little.
	for time.Since(start)+last < dur {
		c0, err := r.d.cpuSeconds()
		if err != nil {
			return err
		}
		t.maxVersion.Add(1)
		if last, err = r.learn(t, body); err != nil {
			return err
		}
		c1, err := r.d.cpuSeconds()
		if err != nil {
			return err
		}
		m.learns = append(m.learns, last.Seconds())
		m.learnCPUs = append(m.learnCPUs, c1-c0)
	}
	return nil
}

// measure warms the daemon up and runs the workload's rounds. Every round
// has a slice of the open-loop phase, which the gated metrics come from; a
// full run (the traced run) adds to each round a slice of the closed-loop
// phase and a slice of the operator phase, which the diagnostic metrics come
// from. So every metric samples the whole run: a stretch in which the
// machine is slow reaches a few rounds of every metric and not the whole of
// one. The gated metrics are the lower quartile over the rounds
// (quietQuartile), the diagnostic ones the median.
func (r *runner) measure(full bool) (*measured, error) {
	m := &measured{}
	m.open.name, m.closed.name, m.push.name, m.sanity.name = "open-loop", "closed-loop", "push", "sanity"
	m.besidePush.name, m.besideSanity.name = "push beside reads", "sanity beside reads"
	m.pushLat, m.sanityLat = make([][]float64, len(r.targets)), make([][]float64, len(r.targets))
	reads := newClient(r.conns)
	defer reads.close()
	if err := r.warmUp(reads, &m.got429); err != nil {
		return nil, err
	}

	heat := startHeaters()
	defer heat.halt()
	scrape0, err := r.scrape()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	mach0 := readMachineCPU()
	cpu0, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}

	rounds := r.def.rounds
	slice := func(share float64) time.Duration {
		return time.Duration(r.seconds * share / float64(rounds) * float64(time.Second))
	}
	openDur, closedDur, opDur := slice(1), time.Duration(0), time.Duration(0)
	if full {
		openDur, closedDur, opDur = slice(openShare), slice(closedShare), slice(1-openShare-closedShare)
	}
	for k := 0; k < rounds; k++ {
		var rd round
		if err := r.openSlice(m, &rd, reads, openDur); err != nil {
			return nil, err
		}
		if full {
			if err := r.closedSlice(m, &rd, reads, closedDur); err != nil {
				return nil, err
			}
			r.operatorSlice(m, &rd, opDur)
		}
		m.rounds = append(m.rounds, rd)
	}

	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.daemonCPU = cpu1 - cpu0
	mach1 := readMachineCPU()
	m.machine = machineCPU{mach1.user - mach0.user, mach1.nice - mach0.nice, mach1.system - mach0.system, mach1.idle - mach0.idle, mach1.steal - mach0.steal}
	m.unheated = heat == nil
	m.selfCPU = selfCPUSeconds() - self0 - heat.halt()
	if m.rssMB, err = r.d.rssPeakMB(); err != nil {
		return nil, err
	}
	scrape1, err := r.scrape()
	if err != nil {
		return nil, err
	}
	m.scrape = map[string]float64{}
	for k, v := range scrape1 {
		m.scrape[k] = v - scrape0[k]
	}
	if r.d.crashed() {
		return nil, errors.New("daemon exited during the run")
	}
	return m, nil
}

// openSlice runs one round's slice of the open-loop phase: reads at the
// workload's rate and, beside them, where the workload says so, one push per
// second per tenant and one sanity check per second, or one /v1/learn after
// another. The daemon's CPU time over the slice, writes included, is charged
// to the slice's reads.
func (r *runner) openSlice(m *measured, rd *round, reads *client, dur time.Duration) error {
	steal0 := readMachineCPU().steal
	c0, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	var side sync.WaitGroup
	if r.def.writesBeside {
		pushes, sanities := m.besidePush.rec.sent(), m.besideSanity.rec.sent()
		n := len(r.targets)
		side.Add(2)
		go func() {
			defer side.Done()
			m.besidePush.timed(func() {
				openLoop(r.side, 1, besideRate*float64(n), dur, 0, func(i int) call {
					return r.targets[(pushes+i)%n].push(&m.got429)
				}, &m.besidePush.rec)
			})
		}()
		go func() {
			defer side.Done()
			m.besideSanity.timed(func() {
				openLoop(r.side, 1, besideRate, dur, 0, func(i int) call {
					return r.targets[(sanities+i)%n].sanity()
				}, &m.besideSanity.rec)
			})
		}()
	}
	var learnErr error
	if r.def.learnBeside {
		side.Add(1)
		go func() {
			defer side.Done()
			learnErr = r.learnBeside(m, dur)
		}()
	}
	n0, sent := m.open.rec.ok(), len(m.lag)
	m.open.timed(func() {
		lag := openLoop(reads, r.conns, r.def.rate, dur, spinWindow, func(i int) call { return r.read(streamOpen, sent+i) }, &m.open.rec)
		m.lag = append(m.lag, lag...)
		side.Wait()
	})
	if learnErr != nil {
		return fmt.Errorf("learn beside reads: %w", learnErr)
	}
	c1, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	m.openCPU += c1 - c0
	rd.Steal = readMachineCPU().steal - steal0
	if done := m.open.rec.ok() - n0; done > 0 {
		rd.Reads = done
		rd.LatencyP50 = median(m.open.rec.lat[n0:])
		rd.CPUPerReq = (c1 - c0) * 1000 / float64(done)
	}
	return nil
}

// closedSlice runs one round's slice of the closed-loop phase: the same read
// mix, each client waiting for its reply; nothing runs beside it.
func (r *runner) closedSlice(m *measured, rd *round, reads *client, dur time.Duration) error {
	c0, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	n0, sent := m.closed.rec.ok(), m.closed.rec.sent()
	var wall time.Duration
	m.closed.timed(func() {
		wall = closedLoop(reads, r.conns, dur, func(i int) call { return r.read(streamClosed, sent+i) }, &m.closed.rec)
	})
	c1, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	if done := m.closed.rec.ok() - n0; done > 0 {
		rd.ClosedCPUPerReq = (c1 - c0) * 1000 / float64(done)
		rd.Throughput = float64(done) / wall.Seconds()
	}
	return nil
}

// operatorSlice runs one round's slice of the operator phase: one client
// alternates a 4-window push and a sanity check, tenant after tenant, with
// nothing else running. It visits every tenant equally often.
func (r *runner) operatorSlice(m *measured, rd *round, dur time.Duration) {
	var buf bytes.Buffer
	p0, s0 := lengths(m.pushLat), lengths(m.sanityLat)
	tOp := time.Now()
	for end := tOp.Add(dur); ; {
		for ti, t := range r.targets {
			t0 := time.Now()
			err := r.side.do(t.push(&m.got429), &buf)
			m.push.rec.add(time.Since(t0), err)
			if err == nil {
				m.pushLat[ti] = append(m.pushLat[ti], ms(time.Since(t0)))
			}
			t0 = time.Now()
			err = r.side.do(t.sanity(), &buf)
			m.sanity.rec.add(time.Since(t0), err)
			if err == nil {
				m.sanityLat[ti] = append(m.sanityLat[ti], ms(time.Since(t0)))
			}
		}
		if !time.Now().Before(end) {
			break
		}
	}
	m.push.wall += time.Since(tOp)
	m.sanity.wall = m.push.wall
	rd.IngestP50, rd.SanityP50 = tenantMedians(m.pushLat, p0), tenantMedians(m.sanityLat, s0)
}

func fmtRounds(v []float64) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

// scrape sums every series of each metric family of the daemon's /metrics,
// so per-tenant series of a fleet add up to one number per family.
func (r *runner) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := r.side.do(call{method: "GET", url: r.d.base + "/metrics"}, &buf); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// quietQuartile is the lower quartile of one figure over the run's rounds.
// What disturbs a round on a shared host (a neighbour on the same core, the
// hypervisor taking the CPU) only ever adds time, for a few seconds at a
// stretch, and a change to the code moves every round alike; so the lower
// quartile follows the code and leaves out the disturbed rounds, where the
// median over rounds moved with them (README.md: "Rounds").
func (m *measured) quietQuartile(f func(round) float64) float64 {
	col := m.column(f)
	if len(col) == 1 { // learn-social128 is one round: its learns run back to back
		return col[0]
	}
	q1, _, _ := quartiles(col)
	return q1
}

// endToEnd fills the end-to-end metrics from the set-ups and the phases.
func (r *runner) endToEnd(res *result, sts []setupTimes, m *measured) error {
	col := func(f func(setupTimes) float64) []float64 {
		out := make([]float64, len(sts))
		for i, st := range sts {
			out[i] = f(st)
		}
		return out
	}
	res.set("setup_s", median(col(func(s setupTimes) float64 { return s.Total })), "s")
	res.set("learn_cpu_s", median(col(func(s setupTimes) float64 { return s.LearnCPU })), "s")
	if m.open.rec.ok() < minSamples(90) {
		return fmt.Errorf("open-loop phase has %d samples, the benchmark keeps at least %d: run longer", m.open.rec.ok(), minSamples(90))
	}
	latency := func(rd round) float64 { return rd.LatencyP50 }
	cpu := func(rd round) float64 { return rd.CPUPerReq }
	res.set("latency_p50_ms", m.quietQuartile(latency), "ms")
	res.set("cpu_ms_per_req", m.quietQuartile(cpu), "ms")
	res.set("rss_peak_mb", m.rssMB, "MB")
	res.note("latency_p50_ms and cpu_ms_per_req: lower quartile over %d rounds of %d reads in all; setup_s and learn_cpu_s: median of %d set-ups",
		len(m.rounds), m.open.rec.ok(), len(sts))
	res.note("per round latency_p50_ms %s (over all reads %.4g)", fmtRounds(m.column(latency)), median(m.open.rec.lat))
	res.note("per round cpu_ms_per_req %s (over all reads %.4g)", fmtRounds(m.column(cpu)), m.openCPU*1000/float64(m.open.rec.ok()))
	res.note("per round steal_s        %s", fmtRounds(m.column(func(rd round) float64 { return rd.Steal })))
	res.note("per set-up learn_s       %s", fmtRounds(col(func(s setupTimes) float64 { return s.Learn })))
	return nil
}

// run executes the workload once and returns its result. A returned error
// means the run is not a result: the daemon crashed, set-up failed, or the
// load generator itself was the bottleneck.
func (r *runner) run() (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	r.side = newClient(2)
	defer r.side.close()

	var sts []setupTimes
	tStage := time.Now()
	for i := 0; i < r.setups; i++ {
		if r.d != nil {
			r.d.stop()
			r.d = nil
		}
		st, err := r.setup()
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
	}
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()

	wall := "wall time:"
	stage := func(name string) {
		wall += fmt.Sprintf(" %s %.1f s", name, time.Since(tStage).Seconds())
		tStage = time.Now()
	}
	stage("setups")
	// The models are downloaded now and not after the phases: the harness
	// grows by a few hundred megabytes decoding them, and on the virtual
	// machines this runs on a process that grows after the machine has been
	// busy for a while takes its first-touch page faults at tens of MB/s,
	// which added 5 to 25 s to a run. Right after a set-up the previous
	// daemon's pages have just been freed and growing is cheap.
	modelBytes, err := r.restoreAll()
	if err != nil {
		return nil, err
	}
	stage("restore")
	m, err := r.measure(r.traced || r.smoke)
	if err != nil {
		return nil, err
	}
	stage("measure")
	res.rounds, res.setups = m.rounds, sts
	for _, p := range m.phases() {
		if p.rec.sent() == 0 {
			continue
		}
		res.Attempted += p.rec.sent()
		res.Failed += p.rec.failed
		res.note("%s", p.line())
		if p.rec.firstErr != nil {
			res.note("%s first failure: %v", p.name, p.rec.firstErr)
		}
	}

	// Validity: the median send must leave within 5 % of the gap of its
	// due time, or the generator is not keeping its schedule and the run
	// is no result. The tail of the lag is reported, not gated: on shared
	// virtual cores the hypervisor delays one wake-up in ten by
	// milliseconds in some runs, whatever the generator does, and that
	// delay is in the latencies because they are timed from the due time.
	sort.Float64s(m.lag)
	lagP50 := m.lag[len(m.lag)/2]
	lagP90 := m.lag[int(0.90*float64(len(m.lag)-1))]
	lagP99 := m.lag[int(0.99*float64(len(m.lag)-1))]
	gapMs := 1000 / r.def.rate
	res.note("generator lag p50 %.3f ms, p90 %.3f ms, p99 %.3f ms of a %.1f ms gap; CPU load generator %.2f s, daemon %.2f s",
		lagP50, lagP90, lagP99, gapMs, m.selfCPU, m.daemonCPU)
	res.note("machine CPU over the phases: user %.2f s, nice %.2f s (the daemon runs niced), system %.2f s, idle %.2f s, stolen by the hypervisor %.2f s",
		m.machine.user, m.machine.nice, m.machine.system, m.machine.idle, m.machine.steal)
	if lagP50 > 0.05*gapMs {
		return nil, fmt.Errorf("invalid run: the load generator's median send was %.3f ms late, more than 5%% of the %.1f ms gap", lagP50, gapMs)
	}
	// The CPU comparison is reported and not gated: on a hit-heavy workload
	// the two are of one size, and a gate would fail the run whenever the
	// daemon got cheaper.
	if m.selfCPU > m.daemonCPU {
		res.note("WARNING: the load generator used more CPU than the daemon; throughput_rps is bounded by the generator")
	}
	if m.unheated {
		res.note("WARNING: the kernel refused SCHED_IDLE, so no heaters ran: latencies include the hypervisor's wake-up time")
	}

	mismatches := r.oracle()
	stage("oracle")
	res.Attempted += len(r.samples)
	res.Failed += mismatches
	res.note("oracle recomputed %d responses through the tape, %d mismatched", len(r.samples), mismatches)

	switch {
	case r.smoke:
		// Every check has run; a 2 s run has too few samples for metrics.
	case !r.traced:
		if err := r.endToEnd(res, sts, m); err != nil {
			return nil, err
		}
	default:
		replies, singleMs, err := r.singleClient()
		if err != nil {
			return nil, err
		}
		r.d.stop() // the traced run has the machine to itself
		r.d = nil
		if err := r.perLayer(res, sts[len(sts)-1], m, lagP99, replies, singleMs, modelBytes); err != nil {
			return nil, err
		}
	}
	stage("layers")
	res.note("%s", wall)
	res.Correct = res.Failed == 0
	return res, nil
}
