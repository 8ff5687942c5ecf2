// Exporters for virtual-time traces: the Chrome trace-event JSON format
// (loadable in Perfetto / chrome://tracing) and a name-sorted text
// timeline. Both are deterministic — identical collectors produce
// byte-identical files — which is what lets cmd/experiments gate the
// -trace-vt output with a byte-comparison test.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hswsim/internal/sim"
)

// NamedCollector is one exported trace section: a collector plus the
// name it renders under (cmd/experiments uses "<experiment>#<n>" for
// the n-th platform an experiment built).
type NamedCollector struct {
	Name string
	C    *Collector
}

// jsonString renders s as a JSON string literal (deterministic; the
// stdlib encoder escapes identically for identical input).
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string only fails on invalid UTF-8, which the
		// encoder replaces rather than rejects; keep a defensive fallback.
		return `"?"`
	}
	return string(b)
}

// micros renders a virtual time as a Chrome "ts" value: microseconds
// with nanosecond precision kept in three decimals.
func micros(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, int64(t)/1000, int64(t)%1000)
}

// chromePID assigns the Chrome "process" for a span scope: one process
// per (section, socket), so Perfetto groups each experiment platform's
// sockets side by side. Socket -1 (system scope) gets the first slot.
func chromePID(section, socket int) int {
	return section*64 + socket + 2
}

// chromeTID assigns the Chrome "thread" within a socket process:
// tid 0 carries socket-scoped spans, core spans use cpu+1.
func chromeTID(cpu int) int {
	return cpu + 1
}

// WriteChromeTrace emits the sections as one Chrome trace-event JSON
// document: completed spans as "X" (complete) events, still-open
// episodes as "B" (begin) events, plus process/thread metadata naming
// each scope.
func WriteChromeTrace(w io.Writer, sections []NamedCollector) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, line)
		return err
	}

	for si, sec := range sections {
		spans, open := snapshot(sec.C)

		// Metadata: name every (socket, cpu) scope this section uses,
		// in sorted order.
		type scope struct{ socket, cpu int }
		seen := map[scope]bool{}
		for _, s := range spans {
			seen[scope{s.Socket, s.CPU}] = true
		}
		for _, s := range open {
			seen[scope{s.Socket, s.CPU}] = true
		}
		scopes := make([]scope, 0, len(seen))
		for sc := range seen {
			scopes = append(scopes, sc)
		}
		sort.Slice(scopes, func(i, j int) bool {
			if scopes[i].socket != scopes[j].socket {
				return scopes[i].socket < scopes[j].socket
			}
			return scopes[i].cpu < scopes[j].cpu
		})
		procNamed := map[int]bool{}
		for _, sc := range scopes {
			pid := chromePID(si, sc.socket)
			if !procNamed[pid] {
				procNamed[pid] = true
				pname := fmt.Sprintf("%s/s%d", sec.Name, sc.socket)
				if sc.socket < 0 {
					pname = sec.Name
				}
				if err := emit(fmt.Sprintf(
					`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
					pid, jsonString(pname))); err != nil {
					return err
				}
				if err := emit(fmt.Sprintf(
					`{"ph":"M","name":"process_sort_index","pid":%d,"tid":0,"args":{"sort_index":%d}}`,
					pid, pid)); err != nil {
					return err
				}
			}
			tname := "pkg"
			if sc.cpu >= 0 {
				tname = fmt.Sprintf("cpu%d", sc.cpu)
			}
			if err := emit(fmt.Sprintf(
				`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, chromeTID(sc.cpu), jsonString(tname))); err != nil {
				return err
			}
		}

		for _, s := range spans {
			if err := emit(fmt.Sprintf(
				`{"ph":"X","name":%s,"cat":%s,"ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"label":%s}}`,
				jsonString(spanName(s)), jsonString(s.Kind.String()),
				micros(s.Start), micros(s.Duration()),
				chromePID(si, s.Socket), chromeTID(s.CPU),
				jsonString(s.Label))); err != nil {
				return err
			}
		}
		for _, s := range open {
			if err := emit(fmt.Sprintf(
				`{"ph":"B","name":%s,"cat":%s,"ts":%s,"pid":%d,"tid":%d,"args":{"label":%s,"open":true}}`,
				jsonString(spanName(s)), jsonString(s.Kind.String()),
				micros(s.Start),
				chromePID(si, s.Socket), chromeTID(s.CPU),
				jsonString(s.Label))); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// spanName picks the rendered event name: the label when present (so
// residency tracks read "C6", "2500 MHz"), the kind otherwise.
func spanName(s Span) string {
	if s.Label != "" {
		return s.Label
	}
	return s.Kind.String()
}

// snapshot returns a collector's completed spans and its open episodes,
// each open one ending at the latest instant the collector holds: the
// newest completed end or open start. An episode opened after the last
// completed span thus renders with a zero, never a negative, duration.
func snapshot(c *Collector) (spans, open []Span) {
	spans, open = c.Spans(), c.Open(0)
	var horizon sim.Time
	for _, s := range spans {
		horizon = max(horizon, s.End)
	}
	for _, s := range open {
		horizon = max(horizon, s.Start)
	}
	for i := range open {
		open[i].End = horizon
	}
	return spans, open
}

// WriteTimeline emits the sections as a name-sorted text timeline: per
// section a summary header (span volume and ring drops — no silent
// truncation), then every completed span sorted by (kind name, socket,
// cpu, start, end, label), then still-open episodes.
func WriteTimeline(w io.Writer, sections []NamedCollector) error {
	for _, sec := range sections {
		spans, open := snapshot(sec.C)
		if _, err := fmt.Fprintf(w, "== %s: %d spans (%d dropped), %d open\n",
			sec.Name, len(spans), sec.C.SpanDrops(), len(open)); err != nil {
			return err
		}
		sorted := append([]Span(nil), spans...)
		sort.SliceStable(sorted, func(i, j int) bool {
			a, b := sorted[i], sorted[j]
			if an, bn := a.Kind.String(), b.Kind.String(); an != bn {
				return an < bn
			}
			if a.Socket != b.Socket {
				return a.Socket < b.Socket
			}
			if a.CPU != b.CPU {
				return a.CPU < b.CPU
			}
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.End != b.End {
				return a.End < b.End
			}
			return a.Label < b.Label
		})
		for _, s := range sorted {
			if _, err := fmt.Fprintln(w, s.String()); err != nil {
				return err
			}
		}
		for _, s := range open {
			if _, err := fmt.Fprintf(w, "%s (open)\n", s.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
