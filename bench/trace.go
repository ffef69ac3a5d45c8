//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, made from this program: tracing
// inside the daemon is a later change. Spans of one request, attack or
// antibody share a trace id; parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload's traced walk in memory and writes
// them out when the walk is over.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(trace, layer string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer})
	t.spans[id-1].Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// call records one span around f.
func (t *tracer) call(trace, layer string, parent int, f func()) {
	id := t.begin(trace, layer, parent)
	f()
	t.end(id)
}

// durations returns the layer's span durations in the order recorded.
func (t *tracer) durations(layer string) []int64 {
	var out []int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Layer == layer {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// p50 is the median duration of the layer's spans, in ns.
func (t *tracer) p50(layer string) float64 {
	d := t.durations(layer)
	sortInt64(d)
	return float64(quantile(d, 0.5))
}

// selfP50 is the median of the layer's spans' self time: the span minus the
// time its child spans cover.
func (t *tracer) selfP50(layer string) float64 {
	children := make(map[int]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var self []int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Layer == layer {
			self = append(self, s.End-s.Start-children[s.ID])
		}
	}
	sortInt64(self)
	return float64(quantile(self, 0.5))
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
