package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, name-sorted families, label-sorted
// series, histograms as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Collectors run first, so externally maintained counters are
// current at scrape time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.collect() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind)
		bw.WriteByte('\n')
		for _, s := range f.orderedSeries() {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", f.labels, s.labelVals, "", float64(s.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", f.labels, s.labelVals, "", float64(s.g.Value()))
			case kindHistogram:
				snap := s.h.Snapshot()
				for i, bound := range snap.Bounds {
					writeSample(bw, f.name, "_bucket", f.labels, s.labelVals,
						formatFloat(bound), float64(snap.Cumulative[i]))
				}
				writeSample(bw, f.name, "_bucket", f.labels, s.labelVals,
					"+Inf", float64(snap.Cumulative[len(snap.Cumulative)-1]))
				writeSample(bw, f.name, "_sum", f.labels, s.labelVals, "", snap.Sum)
				writeSample(bw, f.name, "_count", f.labels, s.labelVals, "", float64(snap.Count))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line. le, when non-empty, is
// appended as the histogram bucket label.
func writeSample(bw *bufio.Writer, name, suffix string, labels, vals []string, le string, value float64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		bw.WriteByte('{')
		first := true
		for i, l := range labels {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(l)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(vals[i]))
			bw.WriteByte('"')
		}
		if le != "" {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(value))
	bw.WriteByte('\n')
}

// formatFloat renders values the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
