// Package export renders and reads obs metrics in Prometheus text
// exposition format (version 0.0.4) — the live-telemetry counterpart
// to the run manifest written at shutdown.
//
// The writer side turns an obs.MetricsSnapshot into metric families: a
// counter becomes a cumulative `<name>_total`, a gauge a plain sample,
// and a power-of-two obs.Histogram a histogram family with cumulative
// `_bucket{le=...}` samples plus `_sum` and `_count`. Because every
// exported value is cumulative, two scrapes are enough to compute any
// rolling-window statistic: rates from counter deltas, p50/p99 from
// bucket deltas — the server keeps no window state of its own.
//
// Registry names may carry labels using the convention produced by
// Label: `base{k=v,k2=v2}`. Sample values with the same base collapse
// into one family with one sample per label set, which is how the
// serve middleware gets per-route/per-status latency families out of a
// flat string-keyed registry.
//
// The parser side (see parse.go) reads the same format back, so a
// watch client (cmd/subsetstat) and the CI scrape checks share one
// implementation with the writer they are validating.
package export

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Label builds a registry metric name carrying label pairs in the
// convention the exporter understands: Label("a.b", "route", "subset")
// is "a.b{route=subset}". Keys and values must be label-safe (no
// commas, braces or '='); the serve middleware only feeds it route
// names and status codes.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 2 + 8*len(kv))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Sample is one exposition line: a value under a set of labels.
type Sample struct {
	Labels [][2]string // ordered key/value pairs; nil for unlabeled
	Value  float64
}

// HistSample is one histogram's exposition: cumulative buckets (the
// +Inf bucket is implied by Count) plus sum and count.
type HistSample struct {
	Labels [][2]string
	Bounds []float64 // finite upper bounds, ascending
	Cum    []int64   // cumulative counts aligned with Bounds
	Sum    float64
	Count  int64
}

// Family is every sample of one metric name, with its exposition type.
type Family struct {
	Name    string // fully sanitized exposition name (counters include _total)
	Type    string // "counter", "gauge" or "histogram"
	Help    string
	Samples []Sample
	Hists   []HistSample
}

// Scalar builds a one-sample unlabeled family — how the server
// contributes point-in-time facts (readiness, queue depth, uptime)
// that live outside the registry.
func Scalar(name, typ, help string, v float64) Family {
	return Family{Name: name, Type: typ, Help: help, Samples: []Sample{{Value: v}}}
}

// Families converts a registry snapshot into exposition families.
// Names are sanitized (every byte outside [a-zA-Z0-9_:] becomes '_')
// and prefixed; labels embedded via Label split out into per-sample
// label sets. Counters gain the conventional _total suffix.
func Families(snap obs.MetricsSnapshot, prefix string) []Family {
	byName := map[string]*Family{}
	get := func(name, typ string) *Family {
		f, ok := byName[name]
		if !ok {
			f = &Family{Name: name, Type: typ}
			byName[name] = f
		}
		return f
	}
	for name, v := range snap.Counters {
		base, labels := splitKey(name)
		f := get(prefix+sanitize(base)+"_total", "counter")
		f.Samples = append(f.Samples, Sample{Labels: labels, Value: float64(v)})
	}
	for name, v := range snap.Gauges {
		base, labels := splitKey(name)
		f := get(prefix+sanitize(base), "gauge")
		f.Samples = append(f.Samples, Sample{Labels: labels, Value: float64(v)})
	}
	for name, h := range snap.Histograms {
		base, labels := splitKey(name)
		f := get(prefix+sanitize(base), "histogram")
		hs := HistSample{Labels: labels, Sum: h.Sum, Count: h.Count}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			hs.Bounds = append(hs.Bounds, b.UpperBound)
			hs.Cum = append(hs.Cum, cum)
		}
		f.Hists = append(f.Hists, hs)
	}
	out := make([]Family, 0, len(byName))
	for _, f := range byName {
		out = append(out, *f)
	}
	return out
}

// Runtime reports the Go runtime's health as exposition families:
// goroutine count, heap and GC facts. These are the "is the process
// itself degrading" signals a registry of pipeline metrics cannot see.
func Runtime() []Family {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []Family{
		Scalar("go_goroutines", "gauge", "Number of goroutines.", float64(runtime.NumGoroutine())),
		Scalar("go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", float64(ms.HeapAlloc)),
		Scalar("go_memstats_heap_inuse_bytes", "gauge", "Bytes in in-use heap spans.", float64(ms.HeapInuse)),
		Scalar("go_memstats_sys_bytes", "gauge", "Bytes obtained from the OS.", float64(ms.Sys)),
		Scalar("go_memstats_next_gc_bytes", "gauge", "Heap size target of the next GC cycle.", float64(ms.NextGC)),
		Scalar("go_memstats_alloc_bytes_total", "counter", "Cumulative bytes allocated on the heap.", float64(ms.TotalAlloc)),
		Scalar("go_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC)),
		Scalar("go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9),
	}
}

// Write renders families as Prometheus text exposition, sorted by
// family name and, within a family, by label set — byte-stable for a
// given input, so golden tests and scrape diffs are meaningful.
func Write(w io.Writer, fams []Family) error {
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var b strings.Builder
	for _, f := range fams {
		if len(f.Samples) == 0 && len(f.Hists) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, strings.ReplaceAll(f.Help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		samples := append([]Sample(nil), f.Samples...)
		sort.Slice(samples, func(i, j int) bool {
			return labelString(samples[i].Labels) < labelString(samples[j].Labels)
		})
		for _, s := range samples {
			b.WriteString(f.Name)
			writeLabels(&b, s.Labels, "")
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
		hists := append([]HistSample(nil), f.Hists...)
		sort.Slice(hists, func(i, j int) bool {
			return labelString(hists[i].Labels) < labelString(hists[j].Labels)
		})
		for _, h := range hists {
			for i, bound := range h.Bounds {
				b.WriteString(f.Name)
				b.WriteString("_bucket")
				writeLabels(&b, h.Labels, formatValue(bound))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(h.Cum[i], 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.Name)
			b.WriteString("_bucket")
			writeLabels(&b, h.Labels, "+Inf")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(h.Count, 10))
			b.WriteByte('\n')

			b.WriteString(f.Name)
			b.WriteString("_sum")
			writeLabels(&b, h.Labels, "")
			b.WriteByte(' ')
			b.WriteString(formatValue(h.Sum))
			b.WriteByte('\n')

			b.WriteString(f.Name)
			b.WriteString("_count")
			writeLabels(&b, h.Labels, "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(h.Count, 10))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders a label set, appending an le pair when le is
// non-empty (histogram bucket lines).
func writeLabels(b *strings.Builder, labels [][2]string, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for _, kv := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(sanitize(kv[0]))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func labelString(labels [][2]string) string {
	var b strings.Builder
	for _, kv := range labels {
		b.WriteString(kv[0])
		b.WriteByte('=')
		b.WriteString(kv[1])
		b.WriteByte(';')
	}
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sanitize maps an arbitrary registry name onto the exposition name
// charset [a-zA-Z0-9_:], with a leading digit shielded by '_'. Dots —
// the registry's namespace separator — become underscores.
func sanitize(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitKey separates a registry key built with Label into its base
// name and ordered label pairs. A key without the `base{k=v}` shape
// (or with a malformed label section) is returned whole with nil
// labels — exposition must never fail on a weird metric name.
func splitKey(key string) (base string, labels [][2]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	base = key[:open]
	inner := key[open+1 : len(key)-1]
	if inner == "" {
		return base, nil
	}
	for _, part := range strings.Split(inner, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" {
			return key, nil // malformed; treat the whole key as a name
		}
		labels = append(labels, [2]string{k, v})
	}
	return base, labels
}
