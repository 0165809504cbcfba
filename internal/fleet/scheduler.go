package fleet

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Fleet training scheduler: N tenants, one bounded worker pool.
//
// A goroutine with retrain and drift tickers per tenant gives N background
// loops that can all decide to train at once — N concurrent gradient
// descents, each fanning its experts over every core. So a pipeline owns no
// goroutine: this scheduler is the only retrain driver, a daemon with one
// tenant included, and it dispatches every tenant's ticks onto TrainWorkers
// persistent workers at the cadence that tenant's pipeline resolved
// (Pipeline.Interval and Pipeline.DriftEvery).
//
// Fairness is structural, not best-effort:
//
//   - each sweep visits every tenant, but the starting offset rotates, so
//     when more tenants are due than workers can absorb no fixed tenant
//     always wins the queue slots;
//   - at most one tick per tenant is queued or running at a time
//     (Tenant.trainPending, an atomic compare-and-swap claim), so a tenant
//     whose training is slow
//     cannot pile up queue entries and crowd out neighbours;
//   - a full queue drops the claim and the tenant retries next sweep —
//     deadline state (nextRetrain/nextDrift) is only advanced when the tick
//     is actually enqueued, so no cadence is silently skipped.
//
// A flooding tenant therefore costs its neighbours at most one queued job's
// latency, and its telemetry flood is already shed upstream by its ingest
// bucket (service.Config.IngestRate).
type scheduler struct {
	f  *Fleet
	rr int // rotating round-robin offset

	jobs   chan schedJob
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type schedJob struct {
	t    *Tenant
	kind string // "scheduled" | "drift"
}

// StartScheduler launches the shared training scheduler. Idempotent; call
// Close (or the returned fleet's Close) to stop it.
func (f *Fleet) StartScheduler() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sched != nil || f.closed {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		f:      f,
		jobs:   make(chan schedJob, f.cfg.TrainWorkers*2),
		cancel: cancel,
	}
	for i := 0; i < f.cfg.TrainWorkers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	s.wg.Add(1)
	go s.loop(ctx)
	f.sched = s
}

func (s *scheduler) stop() {
	s.cancel()
	s.wg.Wait()
}

// Sweep period bounds: half the finest cadence of any resident tenant,
// within these limits (maxSweep alone while the fleet is empty).
const (
	minSweep = time.Millisecond
	maxSweep = 30 * time.Second
)

// loop sweeps the tenant table on a cadence finer than the drift check and
// enqueues due ticks in rotating round-robin order.
func (s *scheduler) loop(ctx context.Context) {
	defer s.wg.Done()
	timer := time.NewTimer(minSweep)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			timer.Reset(s.sweepOnce(time.Now()))
		}
	}
}

// sweepOnce enqueues every tick due at now and returns the wait until the
// next sweep.
func (s *scheduler) sweepOnce(now time.Time) time.Duration {
	tenants := s.f.Tenants()
	n := len(tenants)
	if n == 0 {
		return maxSweep
	}
	next := maxSweep
	s.rr = (s.rr + 1) % n
	for i := 0; i < n; i++ {
		t := tenants[(s.rr+i)%n]
		if t.retired.Load() {
			continue
		}
		p := t.srv.Pipeline()
		next = max(minSweep, min(next, p.Interval()/2, p.DriftEvery()/2))
		kind, commit := s.due(t, now)
		if kind == "" {
			continue
		}
		// Atomic claim: at most one queued-or-running tick per tenant.
		if !t.trainPending.CompareAndSwap(false, true) {
			continue
		}
		select {
		case s.jobs <- schedJob{t: t, kind: kind}:
			commit()
		default:
			// Queue full: release the claim, leave deadlines untouched,
			// retry next sweep. The rotating offset guarantees this tenant
			// is not perpetually last in line.
			t.trainPending.Store(false)
		}
	}
	return next
}

// due decides whether a tenant owes a tick at now, at the cadence its own
// pipeline resolved. Deadlines advance only via the returned commit (called
// once the tick is actually enqueued). Only the scheduler goroutine touches
// the deadline fields.
func (s *scheduler) due(t *Tenant, now time.Time) (kind string, commit func()) {
	p := t.srv.Pipeline()
	rearm := func() {
		t.nextRetrain = now.Add(p.Interval())
		t.nextDrift = now.Add(p.DriftEvery())
	}
	switch {
	case t.nextRetrain.IsZero():
		// First sighting: phase the tenant in, first retrain one interval
		// from now.
		rearm()
		return "", nil
	case !now.Before(t.nextRetrain):
		return "scheduled", rearm
	case !now.Before(t.nextDrift):
		return "drift", func() { t.nextDrift = now.Add(p.DriftEvery()) }
	}
	return "", nil
}

// runTick executes one tick, containing panics: a tenant whose state
// poisons its own training job must not take the shared workers (and with
// them every other tenant's training) down.
func (s *scheduler) runTick(ctx context.Context, j schedJob) {
	defer func() {
		if r := recover(); r != nil {
			if lg := s.f.cfg.Opts.Logger; lg != nil {
				lg.Error("training tick panicked", "app", j.t.ID,
					"kind", j.kind, "panic", fmt.Sprint(r),
					"stack", string(debug.Stack()))
			}
		}
	}()
	switch j.kind {
	case "scheduled":
		j.t.srv.Pipeline().TickScheduled(ctx)
	case "drift":
		j.t.srv.Pipeline().TickDrift(ctx)
	}
}

// worker executes ticks from the shared queue. The tick runs the tenant's
// own pipeline machinery (quality verdict, retrain with retries,
// checkpoint, atomic swap).
func (s *scheduler) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.jobs:
			if !j.t.retired.Load() {
				s.runTick(ctx, j)
			}
			j.t.trainPending.Store(false)
		}
	}
}
