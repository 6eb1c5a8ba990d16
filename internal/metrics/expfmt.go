package metrics

// Prometheus text exposition format, version 0.0.4: for every family a
// # HELP line, a # TYPE line, then one sample line per series (histograms
// expand into cumulative _bucket lines ending at le="+Inf", plus _sum and
// _count). Families render in registration order and series in label-key
// order, so consecutive scrapes differ only in values — the validator test
// diffs structure across scrapes.

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteText renders every registered family in the text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler serves the registry at GET /metrics content-type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

func (f *family) write(bw *bufio.Writer) error {
	if len(f.series) == 0 {
		return nil
	}
	if _, err := bw.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n"); err != nil {
		return err
	}
	if _, err := bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n"); err != nil {
		return err
	}
	for _, s := range f.series {
		if err := s.write(bw, f); err != nil {
			return err
		}
	}
	return nil
}

func (s *series) write(bw *bufio.Writer, f *family) error {
	switch {
	case s.counter != nil:
		return sample(bw, f.name, s.key, formatUint(s.counter.Value()))
	case s.gauge != nil:
		return sample(bw, f.name, s.key, formatFloat(s.gauge.Value()))
	case s.gaugeFn != nil:
		return sample(bw, f.name, s.key, formatFloat(s.gaugeFn()))
	case s.hist != nil:
		h := s.hist
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if err := sample(bw, f.name+"_bucket", mergeLabels(s.labels, "le", formatFloat(b)), formatUint(cum)); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if err := sample(bw, f.name+"_bucket", mergeLabels(s.labels, "le", "+Inf"), formatUint(cum)); err != nil {
			return err
		}
		if err := sample(bw, f.name+"_sum", s.key, formatFloat(h.Sum())); err != nil {
			return err
		}
		// _count is the +Inf bucket's value, not h.Count(): that is a separate
		// atomic, and an Observe between the two loads would print a count the
		// buckets above do not add up to.
		return sample(bw, f.name+"_count", s.key, formatUint(cum))
	}
	return nil
}

func sample(bw *bufio.Writer, name, labels, value string) error {
	if _, err := bw.WriteString(name + labels + " " + value + "\n"); err != nil {
		return err
	}
	return nil
}

// labelKey renders a label list as `{a="x",b="y"}` (empty string for no
// labels) — both the series identity and the exposition form.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// mergeLabels appends one extra label (the histogram's le) to a rendered
// label set.
func mergeLabels(labels []Label, name, value string) string {
	extra := name + `="` + escapeValue(value) + `"`
	if len(labels) == 0 {
		return "{" + extra + "}"
	}
	key := labelKey(labels)
	return key[:len(key)-1] + "," + extra + "}"
}

// escapeValue escapes a label value per the exposition grammar.
func escapeValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatUint(v uint64) string {
	return strconv.FormatUint(v, 10)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
