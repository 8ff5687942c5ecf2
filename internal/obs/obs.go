// Package obs is the deterministic, out-of-band observability layer:
// a lock-cheap registry of counters, gauges and fixed-bucket histograms
// that the sim engine, the suite scheduler, the result cache and the
// power integrator report through. Metrics never touch rendered
// experiment output — they exist so the cost and the failure modes of
// the measurement infrastructure itself are visible (the paper's own
// method applied to us: measure the measurer).
//
// Design constraints, in order:
//
//   - Zero perturbation: nothing in this package may influence a
//     simulation result. Metrics are written only to side channels (the
//     -report manifest, stderr summaries, Prometheus text).
//   - Cheap increments: counters are single atomic adds and allocate
//     nothing. Hot loops (the event dispatcher, the per-segment
//     integrator) keep plain local counters and flush deltas here at
//     coarse boundaries, so the per-event path stays atomic-free.
//   - Deterministic reads: Snapshot orders metrics by name (then label),
//     so two reports over identical runs are structurally identical.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds a named set of metrics. The zero value is not usable;
// use NewRegistry, or the process-wide registry that all instrumented
// subsystems report to (read it with Snapshot).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// metric is the common surface the registry keeps: every metric kind
// can snapshot itself deterministically.
type metric interface {
	snapshot() []Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// std is the process-wide registry the instrumented subsystems (sim
// engine, suite scheduler, expcache, power integrator) report to.
var std = NewRegistry()

// Snapshot reads the process-wide registry.
func Snapshot() []Metric { return std.Snapshot() }

// register adds m under name, panicking on a duplicate — metric names
// are program constants, so a collision is a programming error.
func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Snapshot returns the current value of every registered metric, sorted
// by name (then by label value for vector members) so the output is
// deterministic regardless of registration or update order.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	var out []Metric
	for _, m := range ms {
		out = append(out, m.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].labelKey() < out[j].labelKey()
	})
	return out
}

// Metric is one snapshotted value.
type Metric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"` // "counter", "gauge" or "histogram"
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge reading (histograms use Sum/Count/
	// Buckets instead).
	Value   int64    `json:"value"`
	Sum     int64    `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket (Prometheus-style: Count is
// the number of observations <= the upper bound).
type Bucket struct {
	LE    string `json:"le"` // upper bound, "+Inf" for the last
	Count int64  `json:"count"`
}

// labelKey flattens labels for deterministic ordering.
func (m Metric) labelKey() string {
	if len(m.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + m.Labels[k] + ";"
	}
	return s
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) snapshot() []Metric {
	return []Metric{{Name: c.name, Kind: "counter", Help: c.help, Value: c.v.Load()}}
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

func (g *Gauge) snapshot() []Metric {
	return []Metric{{Name: g.name, Kind: "gauge", Help: g.help, Value: g.v.Load()}}
}

// Histogram accumulates int64 observations into fixed cumulative
// buckets. Bounds are upper limits in ascending order; observations
// above the last bound land in the implicit +Inf bucket. Observe is one
// linear scan plus three atomic adds — no locks, no allocation.
type Histogram struct {
	name, help string
	bounds     []int64
	buckets    []atomic.Int64 // len(bounds)+1, non-cumulative internally
	sum, count atomic.Int64
}

// Histogram registers and returns a new fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

func (h *Histogram) snapshot() []Metric {
	m := Metric{Name: h.name, Kind: "histogram", Help: h.help,
		Sum: h.sum.Load(), Count: h.count.Load()}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmt.Sprintf("%d", h.bounds[i])
		}
		m.Buckets = append(m.Buckets, Bucket{LE: le, Count: cum})
	}
	return []Metric{m}
}

// CounterVec is a family of counters distinguished by one label value
// (e.g. per-experiment-id run counts). Members are created on first use
// under a mutex — acceptable because vector increments happen per
// experiment or per sweep, never per event.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	m                 map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, m: map[string]*Counter{}}
	r.register(name, v)
	return v
}

// With returns the member counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[value]
	if !ok {
		c = &Counter{name: v.name}
		v.m[value] = c
	}
	return c
}

func (v *CounterVec) snapshot() []Metric {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Metric, 0, len(v.m))
	for val, c := range v.m {
		out = append(out, Metric{
			Name: v.name, Kind: "counter", Help: v.help,
			Labels: map[string]string{v.label: val},
			Value:  c.v.Load(),
		})
	}
	return out
}
