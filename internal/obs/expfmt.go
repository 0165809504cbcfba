package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text-format content type served by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler that renders the registry in Prometheus
// text format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each preceded by its # HELP and
// # TYPE lines, histogram children expanded into cumulative _bucket series
// ending in le="+Inf" plus _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	st := r.state
	st.mu.RLock()
	rt := st.runtime
	st.mu.RUnlock()
	if rt != nil {
		rt.collect()
	}
	st.mu.RLock()
	fams := make([]*family, 0, len(st.families))
	for _, f := range st.families {
		fams = append(fams, f)
	}
	st.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return nil // a family with no series exports nothing, like client_golang
	}

	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range children {
		switch m := c.metric.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, c.values, "", 0),
				strconv.FormatUint(m.Value(), 10))
		case *Gauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, c.values, "", 0),
				formatFloat(m.Value()))
		case *Histogram:
			counts, sum, total := m.snapshot()
			cum := uint64(0)
			for i, upper := range m.upper {
				cum += counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, c.values, "le", upper), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				renderLabels(f.labels, c.values, "le", math.Inf(+1)), total)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
				renderLabels(f.labels, c.values, "", 0), formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name,
				renderLabels(f.labels, c.values, "", 0), total)
		}
	}
	return nil
}

// renderLabels renders {a="x",b="y"} (empty string for no labels), with an
// optional trailing le bucket label.
func renderLabels(names, values []string, le string, upper float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(formatFloat(upper))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
