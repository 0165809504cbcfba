package estimator

import (
	"fmt"
	"io"
)

// Summary writes a human-readable report of a trained model: the feature
// space, and per expert its size, target scaling, mask openness, and top
// attention peers — the operator-facing view of what application learning
// produced.
func (m *Model) Summary(w io.Writer) {
	fmt.Fprintf(w, "DeepRest model: %d experts over %d invocation-path features (hidden=%d, δ=%.2f)\n",
		len(m.Pairs), m.Space.Dim(), m.Cfg.Hidden, m.Cfg.Delta)
	for _, p := range m.Pairs {
		e := m.Experts[p]
		ts := m.TargetScales[p]
		kind := "level"
		if ts.Kind == kindDelta {
			kind = "growth"
		}
		fmt.Fprintf(w, "  %-40s %5d params, target %s scale %.4g", p, e.NumParams(), kind, ts.Scale)
		if ts.Kind == kindDelta {
			fmt.Fprintf(w, " (base %.4g)", ts.Base)
		}
		open, total := maskOpenness(e)
		fmt.Fprintf(w, ", mask %d/%d gates open", open, total)
		if peers := m.AttentionReport(p, 2); len(peers) > 0 && e.UseAttention {
			fmt.Fprintf(w, ", listens to")
			for _, pw := range peers {
				fmt.Fprintf(w, " %s(%+.3f)", pw.Peer, pw.Alpha)
			}
		}
		fmt.Fprintln(w)
	}
}

// maskOpenness counts gates whose admission weight exceeds 0.5.
func maskOpenness(e *Expert) (open, total int) {
	ws := e.Mask.Weights()
	for _, w := range ws {
		if w > 0.5 {
			open++
		}
	}
	return open, len(ws)
}
