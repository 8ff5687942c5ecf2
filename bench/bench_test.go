package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// quickSize shrinks every size so each workload, the traced run and the
// probes finish in a fraction of a second. Digests only hold at full
// size, so the tests run unpinned workloads.
var quickSize = sizing{scaleMul: 0.02, setupMul: 0.5, batch: 24, hotScale: 0.02, liveScale: 0.01,
	ladderScale: 0.01, fleetNodes: 32, probeBatch: time.Millisecond}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram holds BENCHMARK.json and the program's
// workload and metric tables in step.
func TestManifestMatchesProgram(t *testing.T) {
	m := loadManifest(t)
	if m.RunSeconds != runSeconds {
		t.Errorf("manifest run_seconds %d, program default -seconds %d", m.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("manifest workloads %v, program %v", names, want)
	}
	for _, set := range []struct {
		manifest []manifestMetric
		program  []metricDef
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		if len(set.manifest) != len(set.program) {
			t.Fatalf("manifest lists %d metrics, program %d", len(set.manifest), len(set.program))
		}
		for i, mm := range set.manifest {
			d := set.program[i]
			if mm.Name != d.name || mm.Unit != d.unit || mm.Better != d.better || mm.Bound != d.bound {
				t.Errorf("manifest %+v, program %+v", mm, d)
			}
			if !nameRE.MatchString(mm.Name) || !unitRE.MatchString(mm.Unit) {
				t.Errorf("metric %q unit %q outside the name grammar", mm.Name, mm.Unit)
			}
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced at reduced size and checks the run reports every declared
// metric with its unit and no failed operation.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	m := loadManifest(t)
	out := t.TempDir()
	tmp, err := tmpDir(out)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	for _, w := range workloads {
		w.digest, w.setupDigest = "", ""
		var reps []childReport
		for child := range 2 {
			rep := runSimChildOrServe(t, w, seed, child, tmp)
			reps = append(reps, rep)
		}
		r, err := aggregate(w, config{seed: seed, seconds: 1}, reps)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name+" untraced", r, m.EndToEnd)

		traceFile := filepath.Join(out, w.name+".trace.json")
		rep, err := runTraced(w, seed, quickSize, time.Now(), 0, out, traceFile, "test")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		r, err = aggregate(w, config{seed: seed, traced: true}, []childReport{rep})
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name+" traced", r, m.PerLayer)
		var chrome struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		data, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
			t.Errorf("%s: span file holds no trace events (err %v)", w.name, err)
		}
	}
}

func runSimChildOrServe(t *testing.T, w workload, seed uint64, child int, tmp string) childReport {
	t.Helper()
	if w.name == "serve" {
		rep, err := runServeChild(seed, child, quickSize, time.Now(), 0, tmp)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep, err := runSimChild(w, quickSize, time.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkMetrics(t *testing.T, what string, r *result, want []manifestMetric) {
	t.Helper()
	if r.Failed != 0 || !r.Correct {
		t.Errorf("%s: %d of %d operations failed: %v", what, r.Failed, r.Attempted, r.errors)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(r.Metrics), len(want))
	}
	for _, mm := range want {
		got, ok := r.Metrics[mm.Name]
		if !ok || got.Unit != mm.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", what, mm.Name, got, mm.Unit)
		}
	}
}

// TestWrongDigestFailsEveryPass pins a digest the output cannot have:
// every pass, set-up included, must count as failed.
func TestWrongDigestFailsEveryPass(t *testing.T) {
	zero := strings.Repeat("0", 64)
	w := workload{name: "steady", ids: []string{"fig7"}, scale: 1, digest: zero, setupDigest: zero}
	rep, err := runSimChild(w, quickSize, time.Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := aggregate(w, config{seed: defaultSeed, seconds: 1}, []childReport{rep})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Info["fail_ratio"].Value; got != 1 || r.Correct {
		t.Errorf("fail_ratio %v correct %v, want 1 and false", got, r.Correct)
	}
}

// TestTimesAreInReferenceUnits checks that wall_s is the median pass
// and setup_s the median set-up, each divided by the reference loop
// timed next to it, that maxrss_mb is the median pass's peak, and that
// the as-measured times go to the info lines.
func TestTimesAreInReferenceUnits(t *testing.T) {
	w, _ := lookupWorkload("serve")
	p := func(wall, ref, rss float64) pass { return pass{Wall: wall, Ref: ref, PeakRSS: rss, Attempted: 1} }
	reps := []childReport{
		{Setup: p(1, 0.050, 0), Passes: []pass{p(2, 0.050, 10), p(3, 0.100, 13)}},
		{Setup: p(2, 0.050, 0), Passes: []pass{p(8, 0.100, 11)}},
		{Setup: p(1, 0.025, 0), Passes: []pass{p(1, 0.025, 12)}},
	}
	r, err := aggregate(w, config{seed: 1, seconds: 1}, reps)
	if err != nil {
		t.Fatal(err)
	}
	// Passes are 40, 30, 80 and 40 loops long; set-ups 20, 40 and 40.
	for name, want := range map[string]float64{"wall_s": 40 * refSeconds, "setup_s": 40 * refSeconds, "maxrss_mb": 11.5} {
		if got := r.Metrics[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := r.Info["host_wall_s"].Value; got != 2.5 {
		t.Errorf("host_wall_s = %v, want 2.5", got)
	}
}

// TestHostRefAllocatesNothing keeps the reference loop free of the GC
// state the passes leave behind.
func TestHostRefAllocatesNothing(t *testing.T) {
	r := newHostRef()
	if n := testing.AllocsPerRun(3, r.loop); n != 0 {
		t.Errorf("reference loop allocates %v times a run", n)
	}
}

// TestShareStaysPositive checks that a process started after its run's
// end still gets a budget the -seconds flag accepts.
func TestShareStaysPositive(t *testing.T) {
	end := time.Now()
	if got := shareOf(end, end.Add(-9*time.Second), 3); got != 3*time.Second {
		t.Errorf("share of 9 s over 3 processes = %v, want 3s", got)
	}
	if got := shareOf(end, end.Add(time.Second), 1); got <= 0 {
		t.Errorf("share after the run's end = %v, want > 0", got)
	}
}

// TestCompareVerdicts checks the comparison rule on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	around := func(center, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = center + step*float64(i%5-2)
		}
		return xs
	}
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"rate", "1/s", "higher", 0.10}
	base := around(100, 0.5, 10)
	for _, c := range []struct {
		name       string
		def        metricDef
		base, head []float64
		want       string
	}{
		{"faster", lower, base, around(90, 0.5, 10), "improved"},
		{"same", lower, base, around(100.2, 0.5, 10), "within-bound"},
		{"slower", lower, base, around(120, 0.5, 10), "regressed"},
		{"noisy parent", lower, around(100, 15, 10), around(100, 15, 10), "unresolved"},
		{"noisy but always better", lower, around(100, 15, 10), around(10, 1, 10), "improved"},
		{"too few pairs", lower, base[:5], around(90, 0.5, 5), "within-bound"},
		{"higher is better", higher, base, around(85, 0.5, 10), "regressed"},
		{"higher improves", higher, base, around(110, 0.5, 10), "improved"},
	} {
		if got := judge(c.def, c.base, c.head).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25}, // the exclusive method extrapolates
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v, want %v %v", c.xs, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

// TestOpQueueDeterministic checks the serve op queue depends on its
// seed and stream alone and has the same mix in every pass.
func TestOpQueueDeterministic(t *testing.T) {
	n := fullSize.batch
	a := opQueue(11, streamID(0, 3), n, fullSize)
	if b := opQueue(11, streamID(0, 3), n, fullSize); !slices.Equal(a, b) {
		t.Fatal("same seed and stream gave different queues")
	}
	if b := opQueue(12, streamID(0, 3), n, fullSize); slices.Equal(a, b) {
		t.Fatal("different seeds gave the same queue")
	}
	if b := opQueue(11, streamID(0, 4), n, fullSize); slices.Equal(a, b) {
		t.Fatal("different streams gave the same queue")
	}
	kinds := map[opKind]int{}
	for i, o := range a {
		kinds[o.kind]++
		if o.kind != opHot && o.t.Seed == 0 {
			t.Fatalf("op %d: fresh tuple with seed 0", i)
		}
		if o.kind == opPair && kinds[opPair]%2 == 1 && (i+1 == len(a) || a[i+1] != o) {
			t.Fatalf("op %d: pair not queued back to back", i)
		}
	}
	if want := (map[opKind]int{opHot: n - n/10 - n/20, opPair: n / 20, opLive: n / 10}); !maps.Equal(kinds, want) {
		t.Errorf("op mix %v, want %v", kinds, want)
	}
}
