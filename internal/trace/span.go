// Package trace records the platform's virtual-time episodes —
// p-state transitions, c-state and package c-state residencies, uncore
// frequency, AVX license and power-limit windows, governor epochs and
// cross-core wakes — as spans, the simulator's stand-in for hardware
// tracing facilities, plus the wall-clock harness spans of the suite.
package trace

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"hswsim/internal/sim"
)

// SpanKind classifies a virtual-time span — one temporal episode of the
// platform, with a begin and an end.
type SpanKind int

const (
	// SpanPState covers a full p-state transition: software request
	// until the new clock is active (the latency Figures 1-4 measure).
	SpanPState SpanKind = iota
	// SpanPStateSwitch covers only the hardware part: PCU grant until
	// the regulator finished switching.
	SpanPStateSwitch
	// SpanCState is one core c-state residency episode (C0 included).
	SpanCState
	// SpanPkgCState is one package c-state residency episode.
	SpanPkgCState
	// SpanAVX is one AVX license window (reduced-frequency mode held).
	SpanAVX
	// SpanUncore is one uncore-frequency episode.
	SpanUncore
	// SpanPowerLimit is one RAPL package power-limit window (from one
	// MSR_PKG_POWER_LIMIT programming to the next).
	SpanPowerLimit
	// SpanGovernor is one software-governor sampling epoch.
	SpanGovernor
	// SpanWake covers a cross-core wake: waker's signalling store until
	// the wakee executes in C0 (the Figures 5/6 exit latency).
	SpanWake
)

func (k SpanKind) String() string {
	switch k {
	case SpanPState:
		return "pstate"
	case SpanPStateSwitch:
		return "pstate-switch"
	case SpanCState:
		return "cstate"
	case SpanPkgCState:
		return "pkg-cstate"
	case SpanAVX:
		return "avx-license"
	case SpanUncore:
		return "uncore-freq"
	case SpanPowerLimit:
		return "power-limit"
	case SpanGovernor:
		return "governor-epoch"
	case SpanWake:
		return "wake"
	default:
		return fmt.Sprintf("span(%d)", int(k))
	}
}

// Span is one completed virtual-time episode.
type Span struct {
	Kind   SpanKind
	Socket int
	CPU    int // -1 for socket- or system-scoped spans
	Start  sim.Time
	End    sim.Time
	Label  string
}

// Duration returns the span length in virtual time.
func (s Span) Duration() sim.Time { return s.End - s.Start }

func (s Span) String() string {
	where := fmt.Sprintf("s%d", s.Socket)
	if s.Socket < 0 {
		where = "sys"
	}
	if s.CPU >= 0 {
		where += fmt.Sprintf("/cpu%d", s.CPU)
	}
	return fmt.Sprintf("%12v .. %12v %12v %-14s %-10s %s",
		s.Start, s.End, s.Duration(), s.Kind, where, s.Label)
}

// spanKey identifies one open episode: at most one span of a given kind
// can be open per (socket, cpu) scope at a time.
type spanKey struct {
	kind        SpanKind
	socket, cpu int
}

// openSpan is an episode that has begun and not yet ended.
type openSpan struct {
	start sim.Time
	label string
}

// Collector is the span-based virtual-time tracer: a bounded ring of
// completed spans plus a table of open episodes. A nil *Collector is a
// valid no-op recorder; every method is nil-safe. Hot call sites must
// still guard with `if tr := ...; tr != nil` before formatting
// arguments — variadic boxing allocates at the call site even when the
// collector would discard the record.
//
// Determinism: the collector records only virtual-time state, in
// simulation order. Two identical simulations produce bitwise-identical
// collectors, and Clone preserves that property across System.Fork.
type Collector struct {
	// spans is the completed-span ring, in End order. It grows by
	// append up to cap, then wraps through next.
	spans []Span
	next  int
	cap   int
	// spanDrops counts completed spans overwritten at capacity;
	// recorded counts every completed span ever recorded.
	spanDrops uint64
	recorded  uint64

	open map[spanKey]openSpan
}

// NewCollector creates a collector holding up to capacity completed
// spans (4096 when capacity <= 0). Span storage is allocated lazily.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Collector{
		cap:  capacity,
		open: map[spanKey]openSpan{},
	}
}

// Clone returns an independent copy (nil clones to nil), with its own
// copy of the span ring and the open-episode table. Used by
// core.System.Fork: the child's trace evolves bitwise-identically to
// what the parent's would under the same subsequent events.
func (c *Collector) Clone() *Collector {
	if c == nil {
		return nil
	}
	n := *c
	n.spans = slices.Clone(c.spans)
	n.open = maps.Clone(c.open)
	return &n
}

// add records one completed span into the ring.
func (c *Collector) add(s Span) {
	if len(c.spans) < c.cap {
		c.spans = append(c.spans, s)
		c.next = len(c.spans) % c.cap
		c.recorded++
		return
	}
	c.spanDrops++
	c.spans[c.next] = s
	c.next++
	if c.next == c.cap {
		c.next = 0
	}
	c.recorded++
}

// Add records a retrospectively-known completed span (used where the
// span is only recorded at completion, e.g. a p-state transition, whose
// request and grant instants its domain keeps until it lands).
func (c *Collector) Add(k SpanKind, socket, cpu int, start, end sim.Time, label string) {
	if c == nil {
		return
	}
	c.add(Span{Kind: k, Socket: socket, CPU: cpu, Start: start, End: end, Label: label})
}

// Addf is Add with a formatted label.
func (c *Collector) Addf(k SpanKind, socket, cpu int, start, end sim.Time, format string, args ...any) {
	if c == nil {
		return
	}
	c.add(Span{Kind: k, Socket: socket, CPU: cpu, Start: start, End: end,
		Label: fmt.Sprintf(format, args...)})
}

// Begin opens an episode. Episodic kinds (c-state residency, uncore
// frequency, power-limit windows, governor epochs) transition directly
// from one state to the next: a Begin on an already-open key completes
// the previous episode at the new start time and opens the next one.
func (c *Collector) Begin(at sim.Time, k SpanKind, socket, cpu int, label string) {
	if c == nil {
		return
	}
	key := spanKey{kind: k, socket: socket, cpu: cpu}
	if prev, ok := c.open[key]; ok {
		c.add(Span{Kind: k, Socket: socket, CPU: cpu, Start: prev.start, End: at, Label: prev.label})
	}
	c.open[key] = openSpan{start: at, label: label}
}

// Beginf is Begin with a formatted label.
func (c *Collector) Beginf(at sim.Time, k SpanKind, socket, cpu int, format string, args ...any) {
	if c == nil {
		return
	}
	c.Begin(at, k, socket, cpu, fmt.Sprintf(format, args...))
}

// End completes an open episode; without a matching Begin it is a no-op.
func (c *Collector) End(at sim.Time, k SpanKind, socket, cpu int) {
	if c == nil {
		return
	}
	key := spanKey{kind: k, socket: socket, cpu: cpu}
	prev, ok := c.open[key]
	if !ok {
		return
	}
	delete(c.open, key)
	c.add(Span{Kind: k, Socket: socket, CPU: cpu, Start: prev.start, End: at, Label: prev.label})
}

// Spans returns the stored completed spans in recording (End) order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	if len(c.spans) < c.cap {
		out := make([]Span, len(c.spans))
		copy(out, c.spans)
		return out
	}
	out := make([]Span, 0, c.cap)
	out = append(out, c.spans[c.next:]...)
	out = append(out, c.spans[:c.next]...)
	return out
}

// Open returns the currently open episodes as half-finished spans
// (End = the given horizon), sorted by (kind, socket, cpu) so the view
// is deterministic regardless of map iteration order.
func (c *Collector) Open(horizon sim.Time) []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, 0, len(c.open))
	for k, v := range c.open {
		out = append(out, Span{Kind: k.kind, Socket: k.socket, CPU: k.cpu,
			Start: v.start, End: horizon, Label: v.label})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Socket != b.Socket {
			return a.Socket < b.Socket
		}
		return a.CPU < b.CPU
	})
	return out
}

// SpanCount returns the number of completed spans currently stored.
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// OpenCount returns the number of open episodes.
func (c *Collector) OpenCount() int {
	if c == nil {
		return 0
	}
	return len(c.open)
}

// SpansRecorded returns the total number of completed spans ever
// recorded (including ones since overwritten).
func (c *Collector) SpansRecorded() uint64 {
	if c == nil {
		return 0
	}
	return c.recorded
}

// SpanDrops returns how many completed spans were overwritten because
// the span ring was full.
func (c *Collector) SpanDrops() uint64 {
	if c == nil {
		return 0
	}
	return c.spanDrops
}

// RenderSpans formats the most recent n completed spans as text.
func (c *Collector) RenderSpans(n int) string {
	sp := c.Spans()
	if n < len(sp) {
		sp = sp[len(sp)-n:]
	}
	var sb strings.Builder
	for _, s := range sp {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
