package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call out of the harness into the system: a facade
// call or a layer probe. Spans of one pass share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the harness's spans in memory until the run ends. It
// belongs to the harness goroutine; while on is false begin records
// nothing, so untraced passes carry no tracing cost.
type tracer struct {
	t0    time.Time
	on    bool
	run   string
	spans []span
	stack []int
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if !t.on {
		return func() {}
	}
	id, parent := len(t.spans), -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// closeOpen ends the spans a workload that gave up early left open.
func (t *tracer) closeOpen() {
	for len(t.stack) > 0 {
		t.spans[t.stack[len(t.stack)-1]].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// totals sums span durations by name, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, indexed by span ID, in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans, and their self time summed by name, at path.
func (t *tracer) write(path string) error {
	selfByName := map[string]float64{}
	for id, ns := range selfTimes(t.spans) {
		selfByName[t.spans[id].Name] += float64(ns) / 1e9
	}
	data, err := json.MarshalIndent(struct {
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_seconds_by_name"`
	}{t.spans, selfByName}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
