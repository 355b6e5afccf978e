package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer.  Spans are
// recorded by the harness around its own calls only — nothing inside the
// simulator is instrumented — kept in memory, and written out when the
// run ends.  Op groups the spans of one operation; Parent is the span
// that caused this one (0 for a workload's root span).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans.  A nil *tracer records nothing and costs one
// comparison, so the measured (untraced) passes run the same harness
// code as the traced one.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent int, name, layer string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Layer: layer, Workload: t.workload, Op: op, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// mark records an instant (a span of no length), such as the arrival of
// a stream's first epoch event.
func (t *tracer) mark(parent int, name, layer string, op int) {
	t.end(t.begin(parent, name, layer, op))
}

// selfTimes sums, per "layer name", each span's duration minus the part
// of it its child spans cover, and counts the spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return self, count
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range t.spans {
		key := s.Layer + " " + s.Name
		// The clients of a service phase run side by side, so the
		// children of its root span cover more than the root: no self time.
		self[key] += time.Duration(max(s.EndNS-s.StartNS-children[s.ID], 0))
		count[key]++
	}
	return self, count
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
