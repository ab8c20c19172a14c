package main

import (
	"encoding/json"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string
	Op     int64 // op id the span belongs to; -1 outside the measured ops
	Parent int   // index of the enclosing span, -1 for a top-level span
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass pays only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, op int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// abort closes span i and every span still open inside it, after a panic
// skipped their end calls.
func (t *tracer) abort(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	for len(t.open) > 0 {
		j := t.open[len(t.open)-1]
		t.spans[j].End = now
		t.open = t.open[:len(t.open)-1]
		if j == i {
			return
		}
	}
}

// add records an already-finished child span of parent, for work whose
// duration another layer measured (a service cell's run time).
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// spanStats summarises the spans of one name.
type spanStats struct {
	Count  int
	Total  time.Duration // wall time inside the spans
	Self   time.Duration // Total minus the time child spans cover
	Median time.Duration
}

// stats aggregates every span by name. Self time subtracts the union of a
// span's children, so overlapping children are not subtracted twice.
func (t *tracer) stats() map[string]*spanStats {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	durs := map[string][]int64{}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - coveredBy(t.spans, children[i]))
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[name].Median = time.Duration(ds[len(ds)/2])
	}
	return out
}

// coveredBy returns the length of the union of the given spans.
func coveredBy(spans []span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// topLevelWithin sums the top-level spans named name that lie inside
// [from, to) (nanoseconds since the tracer started).
func (t *tracer) topLevelWithin(name string, from, to int64) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name && s.Start >= from && s.End <= to {
			sum += s.End - s.Start
		}
	}
	return sum
}

// since converts a wall time into the tracer's clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// chromeEvent is one complete ("X") trace event; Perfetto and
// chrome://tracing load the object form {"traceEvents": [...]}.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeJSON renders the spans as Chrome trace-event JSON, ordered by
// start time with parents before the children they enclose.
func (t *tracer) chromeJSON(workload string) ([]byte, error) {
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := t.spans[order[a]], t.spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	events := make([]chromeEvent, 0, len(t.spans))
	for _, i := range order {
		s := t.spans[i]
		args := map[string]any{"workload": workload}
		if s.Op >= 0 {
			args["op"] = s.Op
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		})
	}
	return json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
