package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one unit share a trace ID; Parent links a call to
// the span that caused it (0 for a unit's root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"` // the X-Subsetd-Trace-Id an HTTP call carried
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory; write stores them when the run ends. A
// nil tracer records nothing, so untraced units pass nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNs: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// tag attaches the trace header value an HTTP call carried.
func (t *tracer) tag(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Tag = tag
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(trace string, parent int, name string, fn func() error) error {
	id := t.start(trace, parent, name)
	err := fn()
	t.end(id)
	return err
}

// finish computes every span's self time: its duration minus the part
// of its interval covered by its children, which may overlap one
// another when they ran concurrently.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c-1]
			lo, hi := max(cs.StartNs, s.StartNs), min(cs.EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered(ivs)
	}
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return total
}

// perTrace sums the self time (ms) of the spans named name within each
// trace, one value per trace that has such a span. Call after finish.
func (t *tracer) perTrace(name string) []float64 {
	sums := map[string]float64{}
	var order []string
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += float64(s.SelfNs) / 1e6
	}
	out := make([]float64, len(order))
	for i, tr := range order {
		out[i] = sums[tr]
	}
	return out
}

// calls returns the self times (ms) of every span named name.
func (t *tracer) calls(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.SelfNs)/1e6)
		}
	}
	return out
}

// unattributedPct is the share of the root spans' time that no layer
// span covers, in percent. A root with no children is itself a layer
// call (a serve request), so none of its time is unattributed.
func (t *tracer) unattributedPct() float64 {
	parents := map[int]bool{}
	for _, s := range t.spans {
		parents[s.Parent] = true
	}
	var self, total int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			if parents[s.ID] {
				self += s.SelfNs
			}
			total += s.EndNs - s.StartNs
		}
	}
	return 100 * ratio(float64(self), float64(total))
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
