package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// quickRunner returns a Runner at reduced scale; labs are cached across
// subtests through the shared Runner.
func quickRunner(out io.Writer) *Runner {
	if out == nil {
		out = io.Discard
	}
	p := DefaultParams(out)
	p.Quick = true
	p.Reps = 2
	return NewRunner(p)
}

// quickResults runs the whole experiment suite in quick mode at seed; a
// seed's results are computed once per test binary.
func quickResults(t *testing.T, seed int64) map[string]Result {
	t.Helper()
	if res, ok := results[seed]; ok {
		return res
	}
	p := DefaultParams(io.Discard)
	p.Quick, p.Reps, p.Seed = true, 2, seed
	r := NewRunner(p)
	res := map[string]Result{}
	for _, id := range List() {
		var err error
		if res[id], err = r.Run(id); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, id, err)
		}
	}
	results[seed] = res
	return res
}

// results holds each seed's quick results, for the shape test and the sweep.
var results = map[int64]map[string]Result{}

// claims records the outcome of each of the paper's qualitative claims, in
// the order they are checked: a claim holds unless one of its checks fails.
type claims struct {
	names    []string
	failures map[string][]string
}

// claim starts the checks of the named claim.
func (c *claims) claim(name string) { c.names = append(c.names, name) }

// fail records that a check of the current claim failed, and why.
func (c *claims) fail(format string, args ...any) {
	name := c.names[len(c.names)-1]
	c.failures[name] = append(c.failures[name], fmt.Sprintf(format, args...))
}

// reproductionClaims checks the paper's qualitative claims on a quick run's
// results: who wins, roughly by what factor, and where the crossovers fall —
// claims C1 and C2. Each bound is stated here once, for every seed.
func reproductionClaims(res map[string]Result) *claims {
	c := &claims{failures: map[string][]string{}}
	// Fig 9: two peaks per learning day.
	c.claim("fig9: two peaks a day")
	if got := res["fig9"].Metrics["mean_peaks_per_day"]; got != 2 {
		c.fail("fig9: %.1f peaks/day, want 2", got)
	}

	// Fig 10: for compose-dominated traffic, DeepRest must beat the
	// history-only forecaster on both focus resources.
	m10 := res["fig10"].Metrics
	c.claim("fig10: DR beats RA (CPU) and simple (IOps)")
	if m10["cpu_deeprest_mape"] >= m10["cpu_resrc_aware_mape"] {
		c.fail("fig10 CPU: DeepRest %.1f%% not better than resrc-aware %.1f%%",
			m10["cpu_deeprest_mape"], m10["cpu_resrc_aware_mape"])
	}
	if m10["write_iops_deeprest_mape"] >= m10["write_iops_simple_mape"] {
		c.fail("fig10 IOps: DeepRest %.1f%% not better than simple scaling %.1f%%",
			m10["write_iops_deeprest_mape"], m10["write_iops_simple_mape"])
	}

	// Fig 11: read-dominated traffic — the scaling baselines
	// overestimate write IOps by ~3x while DeepRest stays near 1x.
	m11 := res["fig11"].Metrics
	c.claim("fig11: the scaling baselines overestimate IOps")
	if r := m11["iops_ratio_simple"]; r < 1.8 {
		c.fail("fig11: simple scaling IOps ratio %.2f, expected heavy overestimation", r)
	}
	if r := m11["iops_ratio_comp_aware"]; r < 1.8 {
		c.fail("fig11: component-aware IOps ratio %.2f, expected overestimation", r)
	}
	c.claim("fig11: DR IOps ratio in 0.6–1.6")
	if r := m11["iops_ratio_deeprest"]; r < 0.6 || r > 1.6 {
		c.fail("fig11: DeepRest IOps ratio %.2f, want ≈1", r)
	}

	// Fig 12: DeepRest has the lowest mean MAPE across the heatmap.
	m12 := res["fig12"].Metrics
	c.claim("fig12: DR lowest mean MAPE")
	dr := m12["mean_mape_deeprest"]
	for _, other := range []string{"resrc_aware", "simple", "comp_aware"} {
		if dr >= m12["mean_mape_"+other] {
			c.fail("fig12: DeepRest mean %.1f%% not best vs %s %.1f%%", dr, other, m12["mean_mape_"+other])
		}
	}

	// Fig 13: query volumes scale with the user knob.
	m13 := res["fig13"].Metrics
	c.claim("fig13: 3× volume ratio in 2.5–3.5")
	if m13["scale_3x_volume_ratio"] < 2.5 || m13["scale_3x_volume_ratio"] > 3.5 {
		c.fail("fig13: 3x volume ratio = %.2f", m13["scale_3x_volume_ratio"])
	}

	// Fig 14: DeepRest wins every component at every scale, and its
	// error grows with scale but stays far below the baselines.
	m14 := res["fig14"].Metrics
	for _, scale := range []string{"1", "2", "3"} {
		c.claim("fig14 " + scale + "×: DR wins ≥ 3 of 4 and beats simple")
		if m14["scale"+scale+"_deeprest_wins"] < 3 {
			c.fail("fig14 scale %sx: DeepRest wins %.0f/4 components", scale, m14["scale"+scale+"_deeprest_wins"])
		}
		if m14["scale"+scale+"_deeprest"] >= m14["scale"+scale+"_simple"] {
			c.fail("fig14 scale %sx: DeepRest %.1f%% not better than simple %.1f%%",
				scale, m14["scale"+scale+"_deeprest"], m14["scale"+scale+"_simple"])
		}
	}

	// Fig 15: DeepRest stays best for unseen compositions.
	m15 := res["fig15"].Metrics
	c.claim("fig15: DR beats simple on unseen mixes")
	if m15["unseen_deeprest"] >= m15["unseen_simple"] {
		c.fail("fig15 unseen: DeepRest %.1f%% vs simple %.1f%%", m15["unseen_deeprest"], m15["unseen_simple"])
	}

	// Fig 16: best mean error in both shape-change directions.
	m16 := res["fig16"].Metrics
	for _, dir := range []string{"2peak_to_flat", "flat_to_2peak"} {
		c.claim("fig16 " + strings.ReplaceAll(dir, "_to_", "→") + ": DR best")
		dr := m16[dir+"_deeprest"]
		for _, other := range []string{"_resrc_aware", "_simple", "_comp_aware"} {
			if dr >= m16[dir+other] {
				c.fail("fig16 %s: DeepRest %.1f%% not best vs%s %.1f%%", dir, dr, other, m16[dir+other])
			}
		}
	}

	// Fig 17: hotel at 3x — DeepRest closest to the actual consumption.
	m17 := res["fig17"].Metrics
	c.claim("fig17: DR beats simple on hotel at 3×")
	if m17["mape_"+shortName(MethodDeepRest)] >= m17["mape_"+shortName(MethodSimpleScaling)] {
		c.fail("fig17: DeepRest %.1f%% vs simple %.1f%%",
			m17["mape_deeprest"], m17["mape_simple"])
	}

	// Fig 18: the history forecaster keeps the two-peak shape on a flat
	// query; DeepRest follows the flat query.
	m18 := res["fig18"].Metrics
	c.claim("fig18: DR follows the flat query, RA keeps two peaks")
	actualPeak := m18["peakiness_actual"]
	if dev := abs(m18["peakiness_deeprest"] - actualPeak); dev > 0.35 {
		c.fail("fig18: DeepRest peakiness %.2f far from actual %.2f", m18["peakiness_deeprest"], actualPeak)
	}
	if m18["peakiness_resrc_aware"] <= m18["peakiness_deeprest"] {
		c.fail("fig18: resrc-aware peakiness %.2f should exceed DeepRest %.2f (it only knows 2-peak history)",
			m18["peakiness_resrc_aware"], m18["peakiness_deeprest"])
	}

	// Table 1: synthesis accuracy above the paper's 91% in all settings.
	c.claim("table1: synthesis accuracy ≥ 91 %")
	if got := res["table1"].Metrics["min_accuracy"]; got < 91 {
		c.fail("table1: min synthesis accuracy %.2f%% below 91%%", got)
	}

	// Fig 19: ransomware found with zero false alarms, while the
	// history-only monitor raises false alarms on benign novel days.
	m19 := res["fig19"].Metrics
	c.claim("fig19: DR 1 TP / 0 FP")
	if m19["deeprest_true_positives"] != 1 || m19["deeprest_false_positives"] != 0 {
		c.fail("fig19: DeepRest %v TP / %v FP, want 1/0",
			m19["deeprest_true_positives"], m19["deeprest_false_positives"])
	}
	c.claim("fig19: the baseline has false alarms")
	if m19["baseline_false_positives"] < 1 {
		c.fail("fig19: baseline FP %.0f, expected false alarms on benign days", m19["baseline_false_positives"])
	}

	// Fig 20: cryptojacking flagged from its start, zero false alarms.
	m20 := res["fig20"].Metrics
	c.claim("fig20: DR ≥ 3 TP / 0 FP")
	if m20["deeprest_true_positives"] < 3 || m20["deeprest_false_positives"] != 0 {
		c.fail("fig20: DeepRest %v TP / %v FP", m20["deeprest_true_positives"], m20["deeprest_false_positives"])
	}

	// Fig 21: MongoDB experts cluster (closer to each other than to the
	// rest).
	c.claim("fig21: MongoDB separation ratio ≥ 1.2")
	if sep := res["fig21"].Metrics["separation_ratio"]; sep < 1.2 {
		c.fail("fig21: separation ratio %.2f, want > 1.2", sep)
	}

	// Fig 22: the learned API→resource dependencies match ground truth.
	c.claim("fig22: dominance ≥ 75 % correct")
	if frac := res["fig22"].Metrics["dominance_correct_fraction"]; frac < 0.75 {
		c.fail("fig22: dominance checks %.0f%% correct", 100*frac)
	}

	// Autoscale extension: DeepRest-planned reservations violate far less
	// than forecaster-planned ones at far lower waste than the scaling
	// baselines.
	ma := res["autoscale"].Metrics
	c.claim("autoscale: DR plans violate least at low waste")
	if ma["violations_deeprest"] > 10 {
		c.fail("autoscale: DeepRest violations %.1f%%", ma["violations_deeprest"])
	}
	if ma["violations_deeprest"] >= ma["violations_resrc_aware"] {
		c.fail("autoscale: DeepRest violations %.1f%% not below resrc-aware %.1f%%",
			ma["violations_deeprest"], ma["violations_resrc_aware"])
	}
	if ma["waste_deeprest"] >= ma["waste_simple"] {
		c.fail("autoscale: DeepRest waste %.1f%% not below simple scaling %.1f%%",
			ma["waste_deeprest"], ma["waste_simple"])
	}
	// Closed control loop (clean day): the estimate-driven proactive
	// policy must beat the SLO-tuned reactive baseline on both ledgers —
	// strictly fewer violation minutes at equal-or-lower core-hours —
	// and run cheaper than the static deployment without violating more.
	c.claim("ctrl: proactive beats reactive and static")
	if ma["ctrl_proactive_violation_min"] >= ma["ctrl_reactive_violation_min"] {
		c.fail("ctrl: proactive violation minutes %.1f not strictly below reactive %.1f",
			ma["ctrl_proactive_violation_min"], ma["ctrl_reactive_violation_min"])
	}
	if ma["ctrl_proactive_core_hours"] > ma["ctrl_reactive_core_hours"] {
		c.fail("ctrl: proactive core-hours %.3f above reactive %.3f",
			ma["ctrl_proactive_core_hours"], ma["ctrl_reactive_core_hours"])
	}
	if ma["ctrl_proactive_core_hours"] >= ma["ctrl_static_core_hours"] {
		c.fail("ctrl: proactive core-hours %.3f not below static deployment %.3f",
			ma["ctrl_proactive_core_hours"], ma["ctrl_static_core_hours"])
	}
	if ma["ctrl_proactive_violation_min"] > ma["ctrl_static_violation_min"] {
		c.fail("ctrl: proactive violation minutes %.1f above static %.1f",
			ma["ctrl_proactive_violation_min"], ma["ctrl_static_violation_min"])
	}
	// Under faults the ranking must not invert: foresight still wins.
	c.claim("ctrl: proactive wins under a crash")
	if ma["ctrl_crash_proactive_violation_min"] >= ma["ctrl_crash_reactive_violation_min"] {
		c.fail("ctrl: crash scenario: proactive %.1f min not below reactive %.1f min",
			ma["ctrl_crash_proactive_violation_min"], ma["ctrl_crash_reactive_violation_min"])
	}

	// Topology-size sweep: the focus-expert error stays bounded as the
	// generated topology grows (quick scale sweeps 10 and 40 components).
	mg := res["gensweep"].Metrics
	c.claim("gensweep: focus MAPE bounded")
	for _, k := range []string{"gen10_mape_mean", "gen40_mape_mean"} {
		if v, ok := mg[k]; !ok || v <= 0 || v > 60 {
			c.fail("gensweep: %s = %v (present=%v)", k, v, ok)
		}
	}

	// Drift extension: a warm retrain over one fresh day repairs the stale
	// model's error on the changed component.
	md := res["drift"].Metrics
	c.claim("drift: the retrain improves")
	if md["ComposePostService_cpu_after"] >= md["ComposePostService_cpu_before"] {
		c.fail("drift: the retrain did not improve (%.1f%% -> %.1f%%)",
			md["ComposePostService_cpu_before"], md["ComposePostService_cpu_after"])
	}
	return c
}

// TestReproductionShape holds the quick experiment suite at seed 1 to the
// paper's qualitative claims (reproductionClaims). This is the repository's
// core regression test for claims C1 and C2.
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite still trains several models")
	}
	res := quickResults(t, 1)
	c := reproductionClaims(res)
	for _, claim := range c.names {
		for _, f := range c.failures[claim] {
			t.Error(f)
		}
	}
	if m14 := res["fig14"].Metrics; m14["scale3_deeprest"] <= m14["scale1_deeprest"] {
		t.Logf("note: error did not grow with scale (%.1f%% vs %.1f%%)",
			m14["scale3_deeprest"], m14["scale1_deeprest"])
	}
}

func TestRegistry(t *testing.T) {
	ids := List()
	if len(ids) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(ids))
	}
	if ids[0] != "fig9" || ids[len(ids)-1] != "drift" {
		t.Errorf("registry order: %v", ids)
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown ID should describe empty")
	}
	r := quickRunner(nil)
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestRunnerOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	r := quickRunner(&buf)
	res, err := r.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "/composePost") {
		t.Errorf("fig9 output missing API series:\n%s", out)
	}
	buf.Reset()
	PrintMetrics(&buf, res)
	if !strings.Contains(buf.String(), "metric") {
		t.Error("PrintMetrics produced nothing")
	}
}

func TestSocialFocusPairs(t *testing.T) {
	pairs := SocialFocusPairs()
	if len(pairs) != 18 {
		t.Fatalf("focus pairs = %d, want 18", len(pairs))
	}
	stateful := 0
	for _, p := range pairs {
		if p.Resource.StatefulOnly() {
			stateful++
		}
	}
	if stateful != 6 {
		t.Errorf("stateful-only pairs = %d, want 6", stateful)
	}
}
