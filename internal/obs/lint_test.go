package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusConformance is the exposition-format audit: feed a
// registry exercising every metric kind through WritePrometheus and
// lint the result as a strict scraper would.
func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("audit_events_total", "events seen").Add(7)
	r.Gauge("audit_depth", "current depth").Set(-2)
	h := r.Histogram("audit_wait_ns", "queue wait", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	vec := r.CounterVec("audit_runs_total", "runs by id", "id")
	vec.With("tab3").Add(2)
	vec.With("fig2").Inc()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if problems := LintPrometheus(buf.String()); len(problems) > 0 {
		t.Fatalf("WritePrometheus output fails conformance lint:\n  %s\nfull output:\n%s",
			strings.Join(problems, "\n  "), buf.String())
	}
	// Spot-check the specific guarantees the satellite names: terminal
	// +Inf bucket and _sum/_count series.
	out := buf.String()
	for _, want := range []string{
		`audit_wait_ns_bucket{le="+Inf"} 4`,
		"audit_wait_ns_sum 5555",
		"audit_wait_ns_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestDefaultRegistryConformance lints the real process-wide registry —
// the exact bytes hswsimd serves on /metrics.
func TestDefaultRegistryConformance(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Snapshot()); err != nil {
		t.Fatal(err)
	}
	if problems := LintPrometheus(buf.String()); len(problems) > 0 {
		t.Fatalf("default registry output fails conformance lint:\n  %s",
			strings.Join(problems, "\n  "))
	}
}

// TestLintCatchesMalformations proves the linter actually rejects the
// failure modes it claims to check — a lint that passes everything
// would make the conformance test vacuous.
func TestLintCatchesMalformations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring expected in some problem
	}{
		{"no TYPE", "orphan_total 3\n", "no preceding TYPE"},
		{"bad name", "# TYPE 9bad counter\n9bad 1\n", "invalid metric name"},
		{"bad value", "# TYPE x counter\nx notanumber\n", "not a number"},
		{"duplicate series", "# TYPE x counter\nx 1\nx 2\n", "duplicate series"},
		{"unknown type", "# TYPE x flurble\nx 1\n", "unknown type"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n", `le="+Inf"`},
		{"decreasing cumulative", "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "decreased"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 3\n", "+Inf bucket"},
	}
	for _, tc := range cases {
		problems := LintPrometheus(tc.text)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: lint did not report %q (got %v)", tc.name, tc.want, problems)
		}
	}
	if problems := LintPrometheus("# TYPE ok counter\n# HELP ok fine\nok 1\n"); len(problems) != 0 {
		t.Errorf("clean input reported problems: %v", problems)
	}
}

// Prometheus text-exposition conformance linting. WritePrometheus is a
// serving surface (hswsimd /metrics), so its output must stay parseable
// by real scrapers. LintPrometheus re-parses emitted text the way a
// strict scraper would and reports structural violations: it is the
// audit behind the conformance test, not a general-purpose parser.

// LintPrometheus parses Prometheus text-exposition-format (0.0.4)
// output and returns one message per conformance violation (empty means
// clean). Checked:
//
//   - metric and label names match the Prometheus grammar
//   - every sample is preceded by a # TYPE for its family, with a
//     recognized type (counter, gauge, histogram)
//   - no duplicate series (same name + label set twice)
//   - counter/gauge values parse as numbers
//   - histograms: cumulative _bucket counts are non-decreasing, the
//     terminal bucket is le="+Inf", and _sum/_count series exist with
//     _count equal to the +Inf bucket's count
func LintPrometheus(text string) []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	types := map[string]string{} // family -> declared type
	seen := map[string]bool{}    // full series key -> emitted already
	type histState struct {
		lastCum  int64
		lastLE   string
		buckets  int
		infCount int64
		sawInf   bool
		sawSum   bool
		sawCount bool
		count    int64
	}
	hists := map[string]*histState{}

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				bad("line %d: malformed comment %q", lineNo, line)
				continue
			}
			if !validMetricName(fields[2]) {
				bad("line %d: invalid metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					bad("line %d: TYPE missing type", lineNo)
					continue
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					bad("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					bad("line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{}
				}
			}
			continue
		}

		name, labels, value, ok := parseSample(line)
		if !ok {
			bad("line %d: malformed sample %q", lineNo, line)
			continue
		}
		if !validMetricName(name) {
			bad("line %d: invalid metric name %q", lineNo, name)
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			bad("line %d: value %q is not a number", lineNo, value)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			bad("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true

		family := name
		var part string
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if _, isHist := hists[base]; isHist {
					family, part = base, suf
				}
				break
			}
		}
		if _, typed := types[family]; !typed {
			bad("line %d: sample %q has no preceding TYPE", lineNo, name)
			continue
		}
		h := hists[family]
		if h == nil {
			if part != "" {
				bad("line %d: %s series for non-histogram %q", lineNo, part, family)
			}
			continue
		}
		switch part {
		case "_bucket":
			le, found := labelValue(labels, "le")
			if !found {
				bad("line %d: histogram bucket without le label", lineNo)
				continue
			}
			cum, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				bad("line %d: bucket count %q not an integer", lineNo, value)
				continue
			}
			if h.buckets > 0 && cum < h.lastCum {
				bad("line %d: %s cumulative count decreased (%d after %d)",
					lineNo, family, cum, h.lastCum)
			}
			if h.sawInf {
				bad("line %d: %s bucket le=%q after le=\"+Inf\"", lineNo, family, le)
			}
			if le == "+Inf" {
				h.sawInf = true
				h.infCount = cum
			}
			h.lastCum, h.lastLE, h.buckets = cum, le, h.buckets+1
		case "_sum":
			h.sawSum = true
		case "_count":
			h.sawCount = true
			h.count, _ = strconv.ParseInt(value, 10, 64)
		default:
			bad("line %d: bare sample %q for histogram family", lineNo, name)
		}
	}

	for family, h := range hists {
		switch {
		case h.buckets == 0:
			bad("histogram %s has no buckets", family)
		case !h.sawInf:
			bad("histogram %s: terminal bucket is le=%q, want le=\"+Inf\"", family, h.lastLE)
		}
		if !h.sawSum {
			bad("histogram %s missing _sum", family)
		}
		if !h.sawCount {
			bad("histogram %s missing _count", family)
		} else if h.sawInf && h.count != h.infCount {
			bad("histogram %s: _count %d != +Inf bucket count %d", family, h.count, h.infCount)
		}
	}
	return problems
}

// parseSample splits `name{labels} value` (labels optional). The label
// body is returned raw; conformance only needs le extraction.
func parseSample(line string) (name, labels, value string, ok bool) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", "", false
		}
		labels = rest[i+1 : j]
		rest = strings.TrimPrefix(rest[j+1:], " ")
	} else {
		i = strings.IndexByte(rest, ' ')
		if i < 0 {
			return "", "", "", false
		}
		name = rest[:i]
		rest = rest[i+1:]
	}
	if name == "" || rest == "" || strings.ContainsAny(rest, " ") {
		return "", "", "", false
	}
	return name, labels, rest, true
}

// labelValue extracts one label's (unquoted) value from a raw label body.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || k != key {
			continue
		}
		unq, err := strconv.Unquote(v)
		if err != nil {
			return "", false
		}
		return unq, true
	}
	return "", false
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
