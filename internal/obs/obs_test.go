package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	c.Add(-7) // negative deltas ignored: counters are monotonic
	g.Set(10)
	g.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.v.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.v.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ns", "waits", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 1000, 5000} {
		h.Observe(v)
	}
	ms := r.Snapshot()
	if len(ms) != 1 || ms[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", ms)
	}
	if ms[0].Count != 5 || ms[0].Sum != 6026 {
		t.Fatalf("count=%d sum=%d, want 5/6026", ms[0].Count, ms[0].Sum)
	}
	// Cumulative: <=10: 2, <=100: 3, <=1000: 4, +Inf: 5.
	want := []Bucket{{"10", 2}, {"100", 3}, {"1000", 4}, {"+Inf", 5}}
	for i, b := range ms[0].Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", "", []int64{10, 10})
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name accepted")
		}
	}()
	r.Counter("dup", "")
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "")
	r.Counter("aa_total", "")
	v := r.CounterVec("mm_total", "", "id")
	v.With("b").Inc()
	v.With("a").Add(2)
	ms := r.Snapshot()
	got := make([]string, len(ms))
	for i, m := range ms {
		got[i] = m.Name + m.labelKey()
	}
	want := []string{"aa_total", "mm_totalid=a;", "mm_totalid=b;", "zz_total"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if ms[1].Value != 2 || ms[2].Value != 1 {
		t.Fatalf("vec values wrong: %+v", ms[1:3])
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []int64{50})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.count.Load() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d", c.Value(), h.count.Load())
	}
}

// TestIncrementAllocFree pins the overhead budget: counter and
// histogram updates must not allocate (the bench_snapshot gate keeps
// allocs/op exact on the instrumented hot paths).
func TestIncrementAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []int64{10, 100})
	g := r.Gauge("g", "")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("metric updates allocate %.1f objects/op, want 0", n)
	}
}

func TestDefaultRegistryHasCanonicalMetrics(t *testing.T) {
	for _, name := range []string{
		"sim_events_dispatched_total", "sim_forks_total",
		"sim_timer_pool_reuse_total", "sim_timer_pool_alloc_total",
		"sched_slot_acquires_total", "expcache_hits_total",
		"expcache_misses_total", "expcache_put_failures_total",
		"power_segments_replayed_total", "power_segments_full_total",
		"power_full_core_loads_total", "power_full_points_total",
		"rapl_window_errors_total", "stats_empty_input_total",
	} {
		found := false
		for _, m := range Snapshot() {
			if m.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("canonical metric %q not registered", name)
		}
	}
}
