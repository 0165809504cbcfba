package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/ctrl"
	"repro/internal/faults"
	"repro/internal/workload"
)

// ExtAutoscale is an extension experiment beyond the paper's figures,
// quantifying its §2 claim that DeepRest "can assist in schedule-based
// autoscaling": resources are reserved ahead of time, one decision per
// hour-scale interval, from each method's estimate of an unseen 2× day.
// The score is the trade-off every operator cares about — windows where
// demand exceeds the reservation (SLO risk) versus over-reservation
// (cost) — plus provisioning churn, and then the same plans actuated by
// the closed loop, which charges their user impact to its SLO ledger.
func (r *Runner) ExtAutoscale() (Result, error) {
	l, err := r.Social()
	if err != nil {
		return Result{}, err
	}
	w := r.P.Out
	q := l.queryDay(workload.TwoPeak{}, l.Mix, l.PeakRPS*2, r.P.Seed+600)
	ev, err := l.Evaluate(q)
	if err != nil {
		return Result{}, err
	}
	cfg := ctrl.DefaultConfig()
	cfg.IntervalWindows = l.WPD / 8 // 3-hour reservations

	pairs := cpuPairs(fig14Components...)
	// Each method's demand per pair: DeepRest plans against its upper
	// confidence bound; point forecasters have no interval.
	demand := make(map[string]map[app.Pair][]float64, len(Methods))
	for _, m := range Methods {
		demand[m] = make(map[app.Pair][]float64, len(pairs))
		for _, p := range pairs {
			if m == MethodDeepRest {
				demand[m][p] = ctrl.Demand(ev.Estimates[p])
			} else {
				demand[m][p] = ev.Series[m][p]
			}
		}
	}
	fmt.Fprintf(w, "schedule-based autoscaling for an unseen 2x day (%d-window reservations, %.0f%% headroom)\n",
		cfg.IntervalWindows, cfg.Headroom*100)
	fmt.Fprintf(w, "  %-18s %14s %14s %10s\n", "plan source", "violations", "waste", "changes")

	metrics := map[string]float64{}
	// assess averages the per-pair scores of the plans built from series.
	assess := func(series map[app.Pair][]float64) (ctrl.Report, error) {
		agg := ctrl.Report{}
		for _, p := range pairs {
			allocs, err := ctrl.Plan(series[p], cfg)
			if err != nil {
				return agg, err
			}
			rep := ctrl.Assess(allocs, ev.Actual[p])
			agg.ViolationFrac += rep.ViolationFrac / float64(len(pairs))
			agg.WasteFrac += rep.WasteFrac / float64(len(pairs))
			agg.Changes += rep.Changes
		}
		return agg, nil
	}
	for _, m := range Methods {
		agg, err := assess(demand[m])
		if err != nil {
			return Result{}, err
		}
		fmt.Fprintf(w, "  %-18s %13.1f%% %13.1f%% %10d\n",
			m, 100*agg.ViolationFrac, 100*agg.WasteFrac, agg.Changes)
		metrics["violations_"+shortName(m)] = 100 * agg.ViolationFrac
		metrics["waste_"+shortName(m)] = 100 * agg.WasteFrac
	}

	// An oracle planner (perfect demand knowledge) bounds the achievable
	// waste at this scheduling granularity.
	oracle, err := assess(ev.Actual)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(w, "  %-18s %13.1f%% %13.1f%%\n", "oracle", 100*oracle.ViolationFrac, 100*oracle.WasteFrac)
	metrics["violations_oracle"] = 100 * oracle.ViolationFrac
	metrics["waste_oracle"] = 100 * oracle.WasteFrac

	// User-visible consequence: actuate each plan through the closed loop
	// — a zero-lag proactive run on the method's demand is exactly its
	// plan, sized at the utilization target — and charge the loop's SLO
	// and cost ledgers.
	planCfg := cfg
	planCfg.LagWindows = 0
	env := ctrl.Env{Spec: l.Spec, Traffic: q, Components: fig14Components}
	fmt.Fprintf(w, "  each plan actuated by the closed loop (no lag, util target %.0f%%):\n", planCfg.UtilTarget*100)
	fmt.Fprintf(w, "    %-18s %14s %12s\n", "plan source", "violation min", "core-hours")
	for _, m := range Methods {
		fc := make(map[string][]float64, len(pairs))
		for _, p := range pairs {
			fc[p.Component] = demand[m][p]
		}
		res, err := ctrl.Run(env, planCfg, ctrl.NewProactive(m, fc))
		if err != nil {
			return Result{}, err
		}
		fmt.Fprintf(w, "    %-18s %14.1f %12.3f\n", m, res.Ledger.ViolationMinutes, res.Ledger.ResourceHours)
		metrics["plan_violation_min_"+shortName(m)] = res.Ledger.ViolationMinutes
		metrics["plan_core_hours_"+shortName(m)] = res.Ledger.ResourceHours
	}

	if err := r.closedLoop(l, ev, q, cfg, metrics); err != nil {
		return Result{}, err
	}
	return Result{ID: "autoscale", Metrics: metrics}, nil
}

// closedLoop is the experiment's second act: instead of scoring offline
// plans, it runs the ctrl loop — forecast, resize ahead of load, charge the
// SLO and cost ledgers — and compares proactive (DeepRest), reactive
// (threshold), static (as deployed), and oracle (perfect foresight)
// policies on the same realized day, clean and under faults.
func (r *Runner) closedLoop(l *Lab, ev *Evaluation, realized *workload.Traffic, cfg ctrl.Config, metrics map[string]float64) error {
	w := r.P.Out
	interval := cfg.IntervalWindows

	// The operator's traffic projection: the same diurnal program the day
	// actually follows, but an independent jitter/noise draw — plausible,
	// not clairvoyant. Each interval the loop re-forecasts over a hybrid
	// traffic (realized so far ++ projection for the rest), so later
	// intervals see progressively more truth.
	projected := l.queryDay(workload.TwoPeak{}, l.Mix, l.PeakRPS*2, r.P.Seed+601)
	forecast, err := closedLoopForecast(l, realized, projected, interval, fig14Components)
	if err != nil {
		return err
	}

	// Provisioning takes real time — half a scheduling interval here —
	// which is the paper's §2 argument for schedule-based scaling: a
	// backward-looking policy's purchases land after the need has moved
	// on, while a forecast-driven one orders capacity for the window range
	// its decision will actually serve.
	cfg.LagWindows = interval / 2

	// Oracle: perfect knowledge of the day's true demand.
	oracleFC := make(map[string][]float64, len(fig14Components))
	for _, p := range cpuPairs(fig14Components...) {
		oracleFC[p.Component] = ev.Actual[p]
	}

	// The reactive policy runs at the utilization target that minimizes
	// its violations on this day (see the frontier below): the margin a
	// backward-looking scaler must carry everywhere to even approach the
	// SLO, because its real uncertainty is everything the load can do
	// within a lookback interval plus the provisioning lag. The
	// forecast-driven policies carry only forecast error and run at the
	// standard 50% target.
	reactiveCfg := cfg
	reactiveCfg.UtilTarget = 0.15
	runs := []struct {
		pol ctrl.Policy
		cfg ctrl.Config
	}{
		{ctrl.NewProactive("proactive", forecast), cfg},
		{ctrl.NewReactive(), reactiveCfg},
		{ctrl.Static{}, cfg},
		{ctrl.NewProactive("oracle", oracleFC), cfg},
	}
	n := realized.NumWindows()
	scenarios := []struct{ name, spec string }{
		{"clean", ""},
		{"crash", fmt.Sprintf("seed=%d;crash:comp=UserTimelineService,from=%d,to=%d",
			r.P.Seed, n/3, n/3+interval)},
		{"throttle", fmt.Sprintf("seed=%d;throttle:comp=PostStorageMongoDB,from=%d,to=%d,factor=0.5",
			r.P.Seed, 2*n/3, 2*n/3+2*interval)},
	}

	fmt.Fprintf(w, "  closed control loop over the realized day (%d-window intervals, lag %d, util target %.0f%%):\n",
		cfg.IntervalWindows, cfg.LagWindows, cfg.UtilTarget*100)
	fmt.Fprintf(w, "    %-10s %-10s %14s %12s %9s\n", "scenario", "policy", "violation min", "core-hours", "scale ops")
	for _, sc := range scenarios {
		env := ctrl.Env{Spec: l.Spec, Traffic: realized, Components: fig14Components}
		if sc.spec != "" {
			if env.Faults, err = faults.Compile(sc.spec); err != nil {
				return err
			}
		}
		for _, rn := range runs {
			res, err := ctrl.Run(env, rn.cfg, rn.pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "    %-10s %-10s %14.1f %12.2f %9d\n", sc.name, res.Policy,
				res.Ledger.ViolationMinutes, res.Ledger.ResourceHours, res.Ledger.ScaleOps)
			prefix := "ctrl_"
			if sc.name != "clean" {
				prefix = "ctrl_" + sc.name + "_"
			}
			metrics[prefix+res.Policy+"_violation_min"] = res.Ledger.ViolationMinutes
			metrics[prefix+res.Policy+"_core_hours"] = res.Ledger.ResourceHours
		}
	}

	// Cost/violation frontier: sweep the one knob each policy family has
	// (headroom for forecast-driven, band width for threshold-driven) on
	// the clean day. Each row is one achievable operating point.
	fmt.Fprintf(w, "  cost/violation frontier (clean day):\n")
	fmt.Fprintf(w, "    %-22s %14s %12s\n", "operating point", "violation min", "core-hours")
	env := ctrl.Env{Spec: l.Spec, Traffic: realized, Components: fig14Components}
	for _, h := range []float64{0, 0.10, 0.25} {
		c := cfg
		c.Headroom = h
		res, err := ctrl.Run(env, c, ctrl.NewProactive("proactive", forecast))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "    proactive headroom=%-4.2f %13.1f %12.2f\n",
			h, res.Ledger.ViolationMinutes, res.Ledger.ResourceHours)
	}
	for _, ut := range []float64{0.5, 0.35, 0.25, 0.15} {
		c := cfg
		c.UtilTarget = ut
		res, err := ctrl.Run(env, c, ctrl.NewReactive())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "    reactive util=%-7.2f %13.1f %12.2f\n",
			ut, res.Ledger.ViolationMinutes, res.Ledger.ResourceHours)
	}
	return nil
}

// closedLoopForecast produces the proactive policy's demand signal the way
// a deployed control plane would: at each interval boundary it re-runs the
// Mode-1 query over a hybrid traffic — realized windows up to now, the
// operator's projection beyond — and keeps that interval's slice of the
// answer. All per-interval queries go through the inference engine in one
// EstimateTrafficBatch call.
func closedLoopForecast(l *Lab, realized, projected *workload.Traffic, interval int, components []string) (map[string][]float64, error) {
	n := realized.NumWindows()
	if projected.NumWindows() != n {
		return nil, fmt.Errorf("experiments: projection covers %d windows, realized %d", projected.NumWindows(), n)
	}
	var hybrids []*workload.Traffic
	for from := 0; from < n; from += interval {
		h := projected
		if from > 0 {
			var err error
			if h, err = realized.Slice(0, from).Append(projected.Slice(from, n)); err != nil {
				return nil, err
			}
		}
		hybrids = append(hybrids, h)
	}
	batch, err := l.System.EstimateTrafficBatch(hybrids)
	if err != nil {
		return nil, err
	}
	forecast := make(map[string][]float64, len(components))
	for k, est := range batch {
		from := k * interval
		to := from + interval
		if to > n {
			to = n
		}
		for comp, series := range ctrl.DemandForecast(est, components) {
			if len(series) < to {
				return nil, fmt.Errorf("experiments: forecast for %s covers %d windows, need %d", comp, len(series), to)
			}
			forecast[comp] = append(forecast[comp], series[from:to]...)
		}
	}
	return forecast, nil
}
