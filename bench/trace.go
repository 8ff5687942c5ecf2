package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// tracer keeps wall-clock spans in memory around every call the
// benchmark makes into a layer of the simulator: pass → experiment,
// probe → call batch, batch → HTTP round trip. Spans share one run id
// and are written out as Chrome trace-event JSON when the run ends. A
// nil *tracer records nothing, which is how untraced runs pay no cost.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

type span struct {
	name   string
	parent int // id of the enclosing span, 0 for a root
	lane   int // Chrome thread id: spans that overlap in time get their own lane
	start  time.Duration
	end    time.Duration
	args   map[string]any
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id, attaching args.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = time.Since(t.t0)
	t.spans[id-1].args = args
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(name string, parent, lane int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane,
		start: start.Sub(t.t0), end: end.Sub(t.t0), args: args})
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children of parallel work may overlap each other).
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		kids[s.parent] = append(kids[s.parent], i)
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i+1] {
			lo, hi := max(t.spans[k].start, s.start), min(t.spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := time.Duration(0), s.start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChrome exports the spans in Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i + 1, "parent": s.parent, "run": t.run,
			"self_us": float64(self[i].Nanoseconds()) / 1e3}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{Name: s.name, Ph: "X", PID: 1, TID: s.lane, Args: args,
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"run": t.run},
	})
}
