package experiments

import (
	"bytes"
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

// TestReproductionShape runs the full experiment suite in quick mode and
// asserts the paper's qualitative claims: who wins, roughly by what factor,
// and where the crossovers fall. This is the repository's core regression
// test for claims C1 and C2.
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite still trains several models")
	}
	r := quickRunner(nil)
	res := map[string]Result{}
	for _, id := range List() {
		var err error
		if res[id], err = r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	// Fig 9: two peaks per learning day.
	if got := res["fig9"].Metrics["mean_peaks_per_day"]; got != 2 {
		t.Errorf("fig9: %.1f peaks/day, want 2", got)
	}

	// Fig 10: for compose-dominated traffic, DeepRest must beat the
	// history-only forecaster on both focus resources.
	m10 := res["fig10"].Metrics
	if m10["cpu_deeprest_mape"] >= m10["cpu_resrc_aware_mape"] {
		t.Errorf("fig10 CPU: DeepRest %.1f%% not better than resrc-aware %.1f%%",
			m10["cpu_deeprest_mape"], m10["cpu_resrc_aware_mape"])
	}
	if m10["write_iops_deeprest_mape"] >= m10["write_iops_simple_mape"] {
		t.Errorf("fig10 IOps: DeepRest %.1f%% not better than simple scaling %.1f%%",
			m10["write_iops_deeprest_mape"], m10["write_iops_simple_mape"])
	}

	// Fig 11: read-dominated traffic — the scaling baselines
	// overestimate write IOps by ~3x while DeepRest stays near 1x.
	m11 := res["fig11"].Metrics
	if r := m11["iops_ratio_simple"]; r < 1.8 {
		t.Errorf("fig11: simple scaling IOps ratio %.2f, expected heavy overestimation", r)
	}
	if r := m11["iops_ratio_comp_aware"]; r < 1.8 {
		t.Errorf("fig11: component-aware IOps ratio %.2f, expected overestimation", r)
	}
	if r := m11["iops_ratio_deeprest"]; r < 0.6 || r > 1.6 {
		t.Errorf("fig11: DeepRest IOps ratio %.2f, want ≈1", r)
	}

	// Fig 12: DeepRest has the lowest mean MAPE across the heatmap.
	m12 := res["fig12"].Metrics
	dr := m12["mean_mape_deeprest"]
	for _, other := range []string{"resrc_aware", "simple", "comp_aware"} {
		if dr >= m12["mean_mape_"+other] {
			t.Errorf("fig12: DeepRest mean %.1f%% not best vs %s %.1f%%", dr, other, m12["mean_mape_"+other])
		}
	}

	// Fig 13: query volumes scale with the user knob.
	m13 := res["fig13"].Metrics
	if m13["scale_3x_volume_ratio"] < 2.5 || m13["scale_3x_volume_ratio"] > 3.5 {
		t.Errorf("fig13: 3x volume ratio = %.2f", m13["scale_3x_volume_ratio"])
	}

	// Fig 14: DeepRest wins every component at every scale, and its
	// error grows with scale but stays far below the baselines.
	m14 := res["fig14"].Metrics
	for _, scale := range []string{"1", "2", "3"} {
		if m14["scale"+scale+"_deeprest_wins"] < 3 {
			t.Errorf("fig14 scale %sx: DeepRest wins %.0f/4 components", scale, m14["scale"+scale+"_deeprest_wins"])
		}
		if m14["scale"+scale+"_deeprest"] >= m14["scale"+scale+"_simple"] {
			t.Errorf("fig14 scale %sx: DeepRest %.1f%% not better than simple %.1f%%",
				scale, m14["scale"+scale+"_deeprest"], m14["scale"+scale+"_simple"])
		}
	}
	if m14["scale3_deeprest"] <= m14["scale1_deeprest"] {
		t.Logf("note: error did not grow with scale (%.1f%% vs %.1f%%)",
			m14["scale3_deeprest"], m14["scale1_deeprest"])
	}

	// Fig 15: DeepRest stays best for unseen compositions.
	m15 := res["fig15"].Metrics
	if m15["unseen_deeprest"] >= m15["unseen_simple"] {
		t.Errorf("fig15 unseen: DeepRest %.1f%% vs simple %.1f%%", m15["unseen_deeprest"], m15["unseen_simple"])
	}

	// Fig 16: best mean error in both shape-change directions.
	m16 := res["fig16"].Metrics
	for _, dir := range []string{"2peak_to_flat", "flat_to_2peak"} {
		dr := m16[dir+"_deeprest"]
		for _, other := range []string{"_resrc_aware", "_simple", "_comp_aware"} {
			if dr >= m16[dir+other] {
				t.Errorf("fig16 %s: DeepRest %.1f%% not best vs%s %.1f%%", dir, dr, other, m16[dir+other])
			}
		}
	}

	// Fig 17: hotel at 3x — DeepRest closest to the actual consumption.
	m17 := res["fig17"].Metrics
	if m17["mape_"+shortName(MethodDeepRest)] >= m17["mape_"+shortName(MethodSimpleScaling)] {
		t.Errorf("fig17: DeepRest %.1f%% vs simple %.1f%%",
			m17["mape_deeprest"], m17["mape_simple"])
	}

	// Fig 18: the history forecaster keeps the two-peak shape on a flat
	// query; DeepRest follows the flat query.
	m18 := res["fig18"].Metrics
	actualPeak := m18["peakiness_actual"]
	if dev := abs(m18["peakiness_deeprest"] - actualPeak); dev > 0.35 {
		t.Errorf("fig18: DeepRest peakiness %.2f far from actual %.2f", m18["peakiness_deeprest"], actualPeak)
	}
	if m18["peakiness_resrc_aware"] <= m18["peakiness_deeprest"] {
		t.Errorf("fig18: resrc-aware peakiness %.2f should exceed DeepRest %.2f (it only knows 2-peak history)",
			m18["peakiness_resrc_aware"], m18["peakiness_deeprest"])
	}

	// Table 1: synthesis accuracy above the paper's 91% in all settings.
	if got := res["table1"].Metrics["min_accuracy"]; got < 91 {
		t.Errorf("table1: min synthesis accuracy %.2f%% below 91%%", got)
	}

	// Fig 19: ransomware found with zero false alarms, while the
	// history-only monitor raises false alarms on benign novel days.
	m19 := res["fig19"].Metrics
	if m19["deeprest_true_positives"] != 1 || m19["deeprest_false_positives"] != 0 {
		t.Errorf("fig19: DeepRest %v TP / %v FP, want 1/0",
			m19["deeprest_true_positives"], m19["deeprest_false_positives"])
	}
	if m19["baseline_false_positives"] < 1 {
		t.Errorf("fig19: baseline FP %.0f, expected false alarms on benign days", m19["baseline_false_positives"])
	}

	// Fig 20: cryptojacking flagged from its start, zero false alarms.
	m20 := res["fig20"].Metrics
	if m20["deeprest_true_positives"] < 3 || m20["deeprest_false_positives"] != 0 {
		t.Errorf("fig20: DeepRest %v TP / %v FP", m20["deeprest_true_positives"], m20["deeprest_false_positives"])
	}

	// Fig 21: MongoDB experts cluster (closer to each other than to the
	// rest).
	if sep := res["fig21"].Metrics["separation_ratio"]; sep < 1.2 {
		t.Errorf("fig21: separation ratio %.2f, want > 1.2", sep)
	}

	// Fig 22: the learned API→resource dependencies match ground truth.
	if frac := res["fig22"].Metrics["dominance_correct_fraction"]; frac < 0.75 {
		t.Errorf("fig22: dominance checks %.0f%% correct", 100*frac)
	}

	// Autoscale extension: DeepRest-planned reservations violate far less
	// than forecaster-planned ones at far lower waste than the scaling
	// baselines.
	ma := res["autoscale"].Metrics
	if ma["violations_deeprest"] > 10 {
		t.Errorf("autoscale: DeepRest violations %.1f%%", ma["violations_deeprest"])
	}
	if ma["violations_deeprest"] >= ma["violations_resrc_aware"] {
		t.Errorf("autoscale: DeepRest violations %.1f%% not below resrc-aware %.1f%%",
			ma["violations_deeprest"], ma["violations_resrc_aware"])
	}
	if ma["waste_deeprest"] >= ma["waste_simple"] {
		t.Errorf("autoscale: DeepRest waste %.1f%% not below simple scaling %.1f%%",
			ma["waste_deeprest"], ma["waste_simple"])
	}
	// Closed control loop (clean day): the estimate-driven proactive
	// policy must beat the SLO-tuned reactive baseline on both ledgers —
	// strictly fewer violation minutes at equal-or-lower core-hours —
	// and run cheaper than the static deployment without violating more.
	if ma["ctrl_proactive_violation_min"] >= ma["ctrl_reactive_violation_min"] {
		t.Errorf("ctrl: proactive violation minutes %.1f not strictly below reactive %.1f",
			ma["ctrl_proactive_violation_min"], ma["ctrl_reactive_violation_min"])
	}
	if ma["ctrl_proactive_core_hours"] > ma["ctrl_reactive_core_hours"] {
		t.Errorf("ctrl: proactive core-hours %.3f above reactive %.3f",
			ma["ctrl_proactive_core_hours"], ma["ctrl_reactive_core_hours"])
	}
	if ma["ctrl_proactive_core_hours"] >= ma["ctrl_static_core_hours"] {
		t.Errorf("ctrl: proactive core-hours %.3f not below static deployment %.3f",
			ma["ctrl_proactive_core_hours"], ma["ctrl_static_core_hours"])
	}
	if ma["ctrl_proactive_violation_min"] > ma["ctrl_static_violation_min"] {
		t.Errorf("ctrl: proactive violation minutes %.1f above static %.1f",
			ma["ctrl_proactive_violation_min"], ma["ctrl_static_violation_min"])
	}
	// Under faults the ranking must not invert: foresight still wins.
	if ma["ctrl_crash_proactive_violation_min"] >= ma["ctrl_crash_reactive_violation_min"] {
		t.Errorf("ctrl: crash scenario: proactive %.1f min not below reactive %.1f min",
			ma["ctrl_crash_proactive_violation_min"], ma["ctrl_crash_reactive_violation_min"])
	}

	// Topology-size sweep: the focus-expert error stays bounded as the
	// generated topology grows (quick scale sweeps 10 and 40 components).
	mg := res["gensweep"].Metrics
	for _, k := range []string{"gen10_mape_mean", "gen40_mape_mean"} {
		if v, ok := mg[k]; !ok || v <= 0 || v > 60 {
			t.Errorf("gensweep: %s = %v (present=%v)", k, v, ok)
		}
	}

	// Drift extension: a warm retrain over one fresh day repairs the stale
	// model's error on the changed component.
	md := res["drift"].Metrics
	if md["ComposePostService_cpu_after"] >= md["ComposePostService_cpu_before"] {
		t.Errorf("drift: the retrain did not improve (%.1f%% -> %.1f%%)",
			md["ComposePostService_cpu_before"], md["ComposePostService_cpu_after"])
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
