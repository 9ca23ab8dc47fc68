package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (0 for a root); spans of one request or one training
// run share a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"` // since the tracer's origin
	End    time.Duration `json:"end"`
	// Lane is the goroutine the span ran on: 0 for the workload's driving
	// goroutine, 1+w for request waiter w.
	Lane int `json:"lane"`
}

// tracer keeps spans in memory for the traced pass; nothing is written
// until the workload ends. A nil *tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	// cur is the innermost open span on the workload's driving goroutine.
	// The trainer, the cluster and the bulk scorer all call the wrapped
	// model and source from that one goroutine, so a stack is enough to
	// parent their spans.
	cur []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reset drops everything recorded so far (set-up and warm-up spans), so
// the trace holds the timed phase only.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.cur = nil, nil
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.cur) > 0 {
		parent = t.cur[len(t.cur)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.cur = append(t.cur, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if n := len(t.cur); n > 0 && t.cur[n-1] == id {
		t.cur = t.cur[:n-1]
	}
}

// add records a finished root span measured elsewhere (a request, timed
// from its due time to its reply on waiter goroutine lane-1).
func (t *tracer) add(name string, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Lane: lane,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the length in seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, (s.End - s.Start).Seconds())
		}
	}
	return d
}

// selfTime is a span's duration minus the part of its interval its direct
// children cover. Overlapping children count once: the covered part is the
// union of their intervals, clipped to the parent.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	var kids []span
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered := time.Duration(0)
	edge := p.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return p.End - p.Start - covered
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, https://ui.perfetto.dev), one row per lane.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane, Args: map[string]int{"id": s.ID, "parent": s.Parent}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
