package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the tracer. Times are offsets from the
// tracer's epoch so the recording holds no wall-clock values.
type span struct {
	name   string
	start  time.Duration
	end    time.Duration
	parent int // index of the enclosing span, -1 for a root
	job    int // jobs share an identifier across all their spans
}

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, job: job})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent, job int, fn func() error) error {
	id := t.begin(name, parent, job)
	err := fn()
	t.end(id)
	return err
}

// layerTimes is the per-name aggregate of a recording.
type layerTimes struct {
	// self is each span name's total self time: its duration minus the part
	// its children cover.
	self map[string]time.Duration
	// total is each span name's total duration.
	total map[string]time.Duration
	// count is the number of spans of each name.
	count map[string]int
}

// aggregate sums self time per span name. Children of one span never
// overlap in this benchmark (every traced path is sequential), so the
// covered part of a span is the sum of its children's durations.
func (t *tracer) aggregate() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
	for i, s := range t.spans {
		lt.self[s.name] += s.end - s.start - covered[i]
		lt.total[s.name] += s.end - s.start
		lt.count[s.name]++
	}
	return lt
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes recordings as Chrome trace-event JSON: recording k is
// process k+1, with one row (tid) per job.
func writeChrome(path string, recordings ...*tracer) error {
	var events []chromeEvent
	for k, t := range recordings {
		t.mu.Lock()
		for i, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.name, Ph: "X",
				TS:  float64(s.start) / float64(time.Microsecond),
				Dur: float64(s.end-s.start) / float64(time.Microsecond),
				PID: k + 1, TID: s.job,
				Args: map[string]int{"span": i, "parent": s.parent, "job": s.job},
			})
		}
		t.mu.Unlock()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
