package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Manifest is the machine-readable run report cmd/experiments emits for
// -report: what was run, how long each experiment took, and the full
// metrics snapshot. It is strictly out-of-band — nothing in it feeds
// back into experiment output.
type Manifest struct {
	Tool string `json:"tool"`
	// Args records the effective request (ids, scale, seed, format).
	Args        map[string]string `json:"args,omitempty"`
	Experiments []ExperimentInfo  `json:"experiments"`
	// Failed counts experiments whose Err is set.
	Failed  int      `json:"failed"`
	WallMS  int64    `json:"wall_ms"`
	Metrics []Metric `json:"metrics"`
	// Traces lists the virtual-time trace collectors a -trace-vt run
	// captured, with per-buffer drop counts so a truncated export is
	// visible in the report, not just in aggregate counters.
	Traces []TraceInfo `json:"traces,omitempty"`
	// Harness summarizes the wall-clock harness spans by category
	// (experiment / sweep point / scheduler slot occupancy).
	Harness []HarnessCat `json:"harness,omitempty"`
	// Profile summarizes a -eprof run's captured energy profile. Its
	// EnergyNJ is an exact integer invariant: the folded export's value
	// column sums to precisely this number (the CI gate checks it).
	Profile *ProfileInfo `json:"profile,omitempty"`
}

// ProfileInfo is the captured energy profile's volume and totals.
type ProfileInfo struct {
	Stacks     int   `json:"stacks"`
	EnergyNJ   int64 `json:"energy_nj"`
	VTimeNS    int64 `json:"vtime_ns"`
	DurationNS int64 `json:"duration_ns"`
}

// TraceInfo is one captured trace collector's volume and drop counts.
type TraceInfo struct {
	Label     string `json:"label"`
	Spans     int    `json:"spans"`
	OpenSpans int    `json:"open_spans"`
	SpanDrops int64  `json:"span_drops"`
}

// HarnessCat is one wall-clock harness span category's aggregate.
type HarnessCat struct {
	Cat     string `json:"cat"`
	Count   int    `json:"count"`
	TotalMS int64  `json:"total_ms"`
}

// ExperimentInfo is one experiment's outcome in the manifest.
type ExperimentInfo struct {
	ID        string `json:"id"`
	Cached    bool   `json:"cached"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Bytes     int    `json:"bytes"`
	Err       string `json:"err,omitempty"`
}

// WriteJSON emits the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Metric looks up a snapshotted metric by name (first label match wins
// for vectors); ok reports whether it exists.
func (m *Manifest) Metric(name string) (Metric, bool) {
	for _, mm := range m.Metrics {
		if mm.Name == name {
			return mm, true
		}
	}
	return Metric{}, false
}

// WriteSummary renders the manifest as a short human report: per-
// experiment timing, then the counters that tell whether the run's fast
// paths worked and whether anything degraded silently.
func (m *Manifest) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "run report: %d experiments", len(m.Experiments))
	if m.Failed > 0 {
		fmt.Fprintf(w, " (%d FAILED)", m.Failed)
	}
	fmt.Fprintf(w, ", wall %d ms\n", m.WallMS)
	for _, e := range m.Experiments {
		how := "ran"
		if e.Cached {
			how = "cache hit"
		}
		if e.Err != "" {
			how = "FAILED: " + e.Err
		}
		fmt.Fprintf(w, "  %-11s %8d ms  %8d B  %s\n", e.ID, e.ElapsedMS, e.Bytes, how)
	}
	if len(m.Traces) > 0 {
		fmt.Fprintln(w, "traces:")
		for _, t := range m.Traces {
			fmt.Fprintf(w, "  %-16s %6d spans (%d dropped, %d open)\n",
				t.Label, t.Spans, t.SpanDrops, t.OpenSpans)
		}
	}
	if m.Profile != nil {
		fmt.Fprintf(w, "energy profile: %d stacks, %.3f J, %.3f s virtual\n",
			m.Profile.Stacks, float64(m.Profile.EnergyNJ)/1e9,
			float64(m.Profile.DurationNS)/1e9)
	}
	if len(m.Harness) > 0 {
		fmt.Fprintln(w, "harness spans:")
		for _, h := range m.Harness {
			fmt.Fprintf(w, "  %-16s %6d spans, %d ms total\n", h.Cat, h.Count, h.TotalMS)
		}
	}
	fmt.Fprintln(w, "counters:")
	for _, mm := range m.Metrics {
		if mm.Kind == "histogram" {
			fmt.Fprintf(w, "  %-36s count %d sum %d\n", mm.Name, mm.Count, mm.Sum)
			continue
		}
		name := mm.Name
		if len(mm.Labels) > 0 {
			name += "{" + promLabels(mm.Labels) + "}"
		}
		fmt.Fprintf(w, "  %-36s %d\n", name, mm.Value)
	}
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (version 0.0.4) — the serving surface a future daemonized mode
// scrapes; today it backs -report and tests.
func WritePrometheus(w io.Writer, ms []Metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !seen[m.Name] {
			seen[m.Name] = true
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "histogram":
			for _, b := range m.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, b.LE, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", m.Name, m.Sum, m.Name, m.Count); err != nil {
				return err
			}
		default:
			labels := ""
			if len(m.Labels) > 0 {
				labels = "{" + promLabels(m.Labels) + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.Name, labels, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders a label set as k="v",... in sorted key order (the
// Labels maps are built with a single key, but keep it general).
func promLabels(labels map[string]string) string {
	m := Metric{Labels: labels}
	// labelKey yields "k=v;" pairs already sorted.
	parts := strings.Split(strings.TrimSuffix(m.labelKey(), ";"), ";")
	for i, p := range parts {
		k, v, _ := strings.Cut(p, "=")
		parts[i] = fmt.Sprintf("%s=%q", k, v)
	}
	return strings.Join(parts, ",")
}
