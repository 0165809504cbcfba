package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/workload"
)

// Result carries an experiment's headline metrics so callers (tests,
// EXPERIMENTS.md generation) can assert the reproduction's shape without
// parsing printed output.
type Result struct {
	// ID is the experiment identifier (fig9..fig22, table1, ...).
	ID string
	// Metrics holds named headline numbers.
	Metrics map[string]float64
}

// Runner executes experiments, lazily provisioning and caching the labs so
// one process trains each model at most once (the paper likewise reuses one
// application-learning phase across queries).
type Runner struct {
	P Params

	socialTwoPeak *Lab
	socialFlat    *Lab
	hotel         *Lab
}

// NewRunner returns a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	if p.Out == nil {
		p.Out = io.Discard
	}
	if p.Reps <= 0 {
		p.Reps = 3
	}
	return &Runner{P: p}
}

// Social returns the two-peak social-network lab, provisioning on first use.
func (r *Runner) Social() (*Lab, error) {
	if r.socialTwoPeak == nil {
		fmt.Fprintln(r.P.Out, "# provisioning social-network lab (two-peak learning traffic)...")
		l, err := NewSocialLab(r.P, workload.TwoPeak{})
		if err != nil {
			return nil, err
		}
		r.socialTwoPeak = l
	}
	return r.socialTwoPeak, nil
}

// SocialFlat returns the social-network lab trained on flat traffic (the
// reverse direction of Figure 16), provisioning on first use.
func (r *Runner) SocialFlat() (*Lab, error) {
	if r.socialFlat == nil {
		fmt.Fprintln(r.P.Out, "# provisioning social-network lab (flat learning traffic)...")
		p := r.P
		p.Seed += 5000
		l, err := NewSocialLab(p, workload.Flat{})
		if err != nil {
			return nil, err
		}
		r.socialFlat = l
	}
	return r.socialFlat, nil
}

// Hotel returns the hotel-reservation lab, provisioning on first use.
func (r *Runner) Hotel() (*Lab, error) {
	if r.hotel == nil {
		fmt.Fprintln(r.P.Out, "# provisioning hotel-reservation lab...")
		l, err := NewHotelLab(r.P)
		if err != nil {
			return nil, err
		}
		r.hotel = l
	}
	return r.hotel, nil
}

// driver is one experiment entry point.
type driver struct {
	id    string
	about string
	run   func(r *Runner) (Result, error)
}

// registry lists every experiment in paper order.
var registry = []driver{
	{"fig9", "7-day learning-phase API traffic (Figure 9)", (*Runner).Fig9},
	{"fig10", "/composePost-dominated query estimation (Figure 10)", (*Runner).Fig10},
	{"fig11", "/readTimeline-dominated query estimation (Figure 11)", (*Runner).Fig11},
	{"fig12", "estimation-quality heatmaps, 4 components x 5 resources (Figure 12)", (*Runner).Fig12},
	{"fig13", "example queries of the three business scenarios (Figure 13)", (*Runner).Fig13},
	{"fig14", "unseen user scales 1x/2x/3x (Figure 14)", (*Runner).Fig14},
	{"fig15", "unseen API compositions (Figure 15)", (*Runner).Fig15},
	{"fig16", "unseen traffic shapes (Figure 16)", (*Runner).Fig16},
	{"fig17", "hotel reservation, 3x users (Figure 17)", (*Runner).Fig17},
	{"fig18", "2-peak->flat example estimates (Figure 18)", (*Runner).Fig18},
	{"table1", "trace-synthesizer accuracy over six settings (Table 1)", (*Runner).Table1},
	{"fig19", "ransomware sanity check (Figure 19)", (*Runner).Fig19},
	{"fig20", "cryptojacking sanity check (Figure 20)", (*Runner).Fig20},
	{"fig21", "PCA of expert GRU parameters (Figure 21)", (*Runner).Fig21},
	{"fig22", "learned API-aware masks (Figure 22)", (*Runner).Fig22},
	{"gensweep", "extension: estimation accuracy across generated topology sizes", (*Runner).GenSweep},
	{"autoscale", "extension: schedule-based autoscaling from estimates, offline plans + closed control loop (paper §2)", (*Runner).ExtAutoscale},
	{"shallow", "extension: shallow model selection vs DeepRest (paper §3)", (*Runner).ExtShallow},
	{"drift", "extension: concept-drift adaptation via continued training (paper §6)", (*Runner).ExtDrift},
}

// List returns the experiment IDs in paper order.
func List() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.id
	}
	return out
}

// Describe returns the one-line description of an experiment ID.
func Describe(id string) string {
	for _, d := range registry {
		if d.id == id {
			return d.about
		}
	}
	return ""
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (Result, error) {
	for _, d := range registry {
		if d.id == id {
			fmt.Fprintf(r.P.Out, "\n== %s: %s ==\n", d.id, d.about)
			return d.run(r)
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, List())
}

// sortedMetricKeys renders metrics deterministically.
func sortedMetricKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PrintMetrics renders a result's metrics block.
func PrintMetrics(w io.Writer, res Result) {
	for _, k := range sortedMetricKeys(res.Metrics) {
		fmt.Fprintf(w, "  metric %s = %.3f\n", k, res.Metrics[k])
	}
}
