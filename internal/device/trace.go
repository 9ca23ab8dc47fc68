package device

import (
	"encoding/json"
	"fmt"
	"io"

	"phideep/internal/sim"
)

// TraceEvent is one recorded device activity: a kernel on the compute
// engine or a transfer on the PCIe engine, in simulated time.
type TraceEvent struct {
	// Name describes the activity ("gemm 1000x1024x4096 [parallel+blocked]",
	// "copy-in 32768000 B").
	Name string
	// Engine is "compute" or "transfer".
	Engine string
	// Start and End are simulated seconds.
	Start, End float64
}

// EnableTrace starts recording up to limit events (0 = unlimited). Tracing
// costs memory proportional to the event count; enable it for runs you
// intend to inspect.
func (d *Device) EnableTrace(limit int) {
	d.trace = &traceBuffer{limit: limit}
}

// Trace returns the recorded events in issue order (nil when tracing was
// never enabled). Dropped counts how many events exceeded the limit.
func (d *Device) Trace() (events []TraceEvent, dropped int) {
	if d.trace == nil {
		return nil, 0
	}
	return d.trace.events, d.trace.dropped
}

// WriteChromeTrace writes the recorded events in the Chrome trace-viewer
// JSON array format (load via chrome://tracing or https://ui.perfetto.dev);
// simulated seconds are mapped to microseconds. The two engines appear as
// two "threads".
func (d *Device) WriteChromeTrace(w io.Writer) error {
	events, _ := d.Trace()
	type chromeEvent struct {
		Name  string  `json:"name"`
		Cat   string  `json:"cat"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
		PID   int     `json:"pid"`
		TID   int     `json:"tid"`
	}
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		tid := 1
		if e.Engine == "transfer" {
			tid = 2
		}
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Engine, Phase: "X",
			TS: e.Start * 1e6, Dur: (e.End - e.Start) * 1e6,
			PID: 1, TID: tid,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

type traceBuffer struct {
	events  []TraceEvent
	limit   int
	dropped int
}

// add records e. Callers check d.trace for nil first, so that an untraced
// device never formats an event name.
func (t *traceBuffer) add(e TraceEvent) {
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// opName renders a cost-model op for the trace.
func opName(op sim.Op) string {
	switch op.Kind {
	case sim.OpGemm:
		return fmt.Sprintf("gemm %dx%dx%d [%s]", op.M, op.K, op.N, op.Level)
	case sim.OpIm2col, sim.OpCol2im:
		// blas encodes the lowering geometry as M=batch, K=ColK, N=oH·oW.
		return fmt.Sprintf("%s %d imgs %dx%d [%s]", op.Kind, op.M, op.N, op.K, op.Level)
	case sim.OpPool:
		return fmt.Sprintf("pool %d imgs %d elems [%s]", op.M, op.Elems, op.Level)
	default:
		return fmt.Sprintf("%s %d elems [%s]", op.Kind, op.Elems, op.Level)
	}
}
