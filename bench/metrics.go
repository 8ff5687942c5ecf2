package main

import (
	"errors"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"hswsim/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test holds the two in
// step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run of every workload. A pass is one RunSuite call for
// the simulation workloads and one closed-loop batch of requests for
// serve. wall_s is the run's median pass and setup_s its processes'
// median set-up, both in reference-loop units (see hostref.go).
// maxrss_mb is the median pass's peak RSS: a process's own peak moves
// with where its GC cycles fall, a median over the run's passes does
// not.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"maxrss_mb", "MiB", "lower", 0.2},
}

// ladderIDs are the experiments the traced run times one at a time.
var ladderIDs = []string{"tab3", "tab4", "tab5", "fig2", "fig3", "fig7", "fig8",
	"extensions", "catalog", "ablations", "fleet"}

// perLayer are the metrics of single layers, named by module, reported
// by every traced run. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, id := range ladderIDs {
		ms = append(ms, metricDef{"exp." + id + ".run_s", "s", "lower", 0})
	}
	return append(ms, []metricDef{
		{"exp.sweep_points", "count", "lower", 0},
		{"slots.mean_waiters", "count", "lower", 0},
		{"slots.steals", "count", "lower", 0},
		{"sim.events", "count", "lower", 0},
		{"sim.events_per_s", "1/s", "higher", 0},
		{"sim.pool_reuse_ratio", "ratio", "higher", 0},
		{"sim.coalesce_joins", "count", "higher", 0},
		{"core.segments_full", "count", "lower", 0},
		{"core.replay_ratio", "ratio", "higher", 0},
		{"core.forks", "count", "lower", 0},
		{"core.fork_reuse_ratio", "ratio", "higher", 0},
		{"core.fork_copied_mb", "MiB", "lower", 0},
		{"core.run_mprime_ns_per_vms", "ns/ms", "lower", 0},
		{"core.run_linpack_ns_per_vms", "ns/ms", "lower", 0},
		{"core.run_idle_ns_per_vms", "ns/ms", "lower", 0},
		{"core.run_firestarter_ns_per_vms", "ns/ms", "lower", 0},
		{"core.run_memstream_ns_per_vms", "ns/ms", "lower", 0},
		{"core.fork_us", "us", "lower", 0},
		{"core.release_us", "us", "lower", 0},
		{"workload.profile_mprime_ns", "ns", "lower", 0},
		{"workload.profile_linpack_ns", "ns", "lower", 0},
		{"cache.solve_ns", "ns", "lower", 0},
		{"power.compute_ns", "ns", "lower", 0},
		{"power.replay_ns", "ns", "lower", 0},
		{"pcu.tick_ns", "ns", "lower", 0},
		{"pcu.tick_unchanged_ns", "ns", "lower", 0},
		{"fleet.new_us_per_node", "us", "lower", 0},
		{"fleet.step_us_per_node", "us", "lower", 0},
		{"fleet.measure_us_per_node", "us", "lower", 0},
		{"expcache.hits", "count", "higher", 0},
		{"expcache.misses", "count", "lower", 0},
		{"expcache.get_us", "us", "lower", 0},
		{"expcache.put_us", "us", "lower", 0},
		{"server.cache_hits", "count", "higher", 0},
		{"server.coalesced", "count", "higher", 0},
		{"server.coalesce_ratio", "ratio", "higher", 0},
		{"server.shed", "count", "lower", 0},
		{"server.queue_wait_mean_ms", "ms", "lower", 0},
		{"server.run_mean_ms", "ms", "lower", 0},
		{"bench.trace_overhead_ratio", "ratio", "lower", 0},
		{"eprof.overhead_ratio", "ratio", "lower", 0},
	}...)
}()

// counts maps an obs counter name to a value or a delta.
type counts map[string]int64

// readCounts reads every unlabelled counter of the obs registry. The
// counters are plain atomics the program keeps anyway, so every run
// records their per-pass deltas at no cost.
func readCounts() counts {
	c := counts{}
	for _, m := range obs.Snapshot() {
		if m.Kind == "counter" && len(m.Labels) == 0 {
			c[m.Name] = m.Value
		}
	}
	return c
}

func (c counts) minus(b counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current RSS, so peakRSSMiB then reads the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark, VmHWM.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// stats summarizes samples the way the acceptance check reads them:
// median, and first and third quartiles by Python's
// statistics.quantiles(values, n=4) (its default exclusive method).
type stats struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) stats {
	s := stats{N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(sorted) >= 2 {
		s.Q1, s.Q3 = quartiles(sorted)
	}
	return s
}

// quartiles ports statistics.quantiles(data, n=4, method='exclusive')
// for sorted data of at least two points.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func percentile(xs []float64, q float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return quantile(sorted, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
