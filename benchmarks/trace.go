package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans are recorded here, around the calls, and not inside the
// layers; attribution inside the program is a later change.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the workload's root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All workloads issue
// their layer calls from one goroutine, so open spans form a stack. A nil
// tracer records nothing: the untraced run uses the same code paths.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration (0 from a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmarks: span closed out of order: " + t.spans[id].Name)
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// selfNS returns each span's duration minus the part its children cover.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// durationsMS lists, in milliseconds and in order, the durations of the
// spans called name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// layerSelfMS totals self time by layer, the part of a span name before
// the first dot ("mc.Check:stache" -> "mc"), largest first. It is what the
// suite prints to answer "where did the pass go".
func layerSelfMS(spans []span) []layerTime {
	self := selfNS(spans)
	byLayer := map[string]float64{}
	for i, s := range spans {
		layer := s.Name
		if j := strings.IndexAny(layer, ".:"); j >= 0 {
			layer = layer[:j]
		}
		byLayer[layer] += float64(self[i]) / 1e6
	}
	out := make([]layerTime, 0, len(byLayer))
	for l, ms := range byLayer {
		out = append(out, layerTime{l, ms})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MS != out[j].MS {
			return out[i].MS > out[j].MS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

type layerTime struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"self_ms"`
}
