package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"hswsim/internal/obs"
)

// renderSuite runs every experiment through RunSuite and returns the
// concatenated output exactly as cmd/experiments emits it.
func renderSuite(t *testing.T, o Options, cache Cache) []byte {
	t.Helper()
	var ids []string
	for _, d := range Suite() {
		ids = append(ids, d.ID)
	}
	var buf bytes.Buffer
	RunSuite(ids, o, false, cache, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		fmt.Fprintf(&buf, "==== %s ====\n", r.ID)
		buf.Write(r.Output)
		buf.WriteByte('\n')
	})
	return buf.Bytes()
}

// TestSuiteSerialVsParallelByteIdentical is the scheduler determinism
// guard: the full suite rendered with every level of parallelism
// (suite-level experiment concurrency + point-level parallelMap on the
// shared pool) must be byte-identical to the strictly sequential
// reference run (parallelWorkers = 1 degrades both levels to serial
// loops). Parallelism may only ever change wall-clock time.
func TestSuiteSerialVsParallelByteIdentical(t *testing.T) {
	o := Quick()
	par := renderSuite(t, o, nil)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser := renderSuite(t, o, nil)
	if !bytes.Equal(par, ser) {
		line := 1
		for i := 0; i < len(par) && i < len(ser); i++ {
			if par[i] != ser[i] {
				t.Fatalf("outputs diverge at byte %d (line %d): parallel %q vs serial %q",
					i, line, clip(par, i), clip(ser, i))
			}
			if par[i] == '\n' {
				line++
			}
		}
		t.Fatalf("outputs differ in length: parallel %d vs serial %d bytes", len(par), len(ser))
	}
}

func clip(b []byte, at int) string {
	end := at + 40
	if end > len(b) {
		end = len(b)
	}
	return string(b[at:end])
}

// TestSuiteCanonicalOrder: the table is addressed by id and rendered in
// the paper's order; ids must be unique and resolvable.
func TestSuiteCanonicalOrder(t *testing.T) {
	wantOrder := []string{"tab1", "tab2", "tab3", "tab4", "tab5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"extensions", "catalog", "ablations", "fleet"}
	s := Suite()
	if len(s) != len(wantOrder) {
		t.Fatalf("suite has %d experiments, want %d", len(s), len(wantOrder))
	}
	for i, d := range s {
		if d.ID != wantOrder[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, d.ID, wantOrder[i])
		}
		if d.Title == "" || d.Run == nil {
			t.Fatalf("descriptor %q incomplete", d.ID)
		}
		got, ok := Lookup(d.ID)
		if !ok || got.ID != d.ID {
			t.Fatalf("Lookup(%q) failed", d.ID)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("Lookup accepted an unknown id")
	}
}

// memCache is an in-memory Cache for runner tests. Like any Cache
// implementation it must tolerate concurrent calls from RunSuite.
type memCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func (c *memCache) key(id string, o Options, csv bool) string {
	return fmt.Sprintf("%s|%#v|%t", id, o, csv)
}

func (c *memCache) Get(id string, o Options, csv bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	out, ok := c.m[c.key(id, o, csv)]
	if ok {
		c.hits++
	}
	return out, ok
}

func (c *memCache) Put(id string, o Options, csv bool, output []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[c.key(id, o, csv)] = bytes.Clone(output)
	return nil
}

// TestRunSuiteCacheRoundTrip: a second identical run must be served
// entirely from the cache and still emit byte-identical output with
// Cached set; different options must miss.
func TestRunSuiteCacheRoundTrip(t *testing.T) {
	cache := &memCache{m: map[string][]byte{}}
	o := Quick()
	ids := []string{"tab1", "fig1", "tab3"}
	runIDs := func(o Options) ([]byte, []SuiteResult) {
		var buf bytes.Buffer
		var rs []SuiteResult
		RunSuite(ids, o, false, cache, func(r SuiteResult) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			buf.Write(r.Output)
			rs = append(rs, r)
		})
		return buf.Bytes(), rs
	}
	first, rs := runIDs(o)
	for _, r := range rs {
		if r.Cached {
			t.Fatalf("%s: cache hit on a cold cache", r.ID)
		}
	}
	if cache.puts != len(ids) {
		t.Fatalf("puts = %d, want %d", cache.puts, len(ids))
	}
	second, rs := runIDs(o)
	for _, r := range rs {
		if !r.Cached {
			t.Fatalf("%s: expected a cache hit", r.ID)
		}
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached output differs from live output")
	}
	if cache.puts != len(ids) {
		t.Fatal("cache hits must not re-store")
	}
	// Different options are a different key: everything misses again.
	hits := cache.hits
	o2 := o
	o2.Seed++
	if _, rs = runIDs(o2); cache.hits != hits {
		t.Fatal("changed options still hit the cache")
	}
	for _, r := range rs {
		if r.Cached {
			t.Fatalf("%s: stale hit across options", r.ID)
		}
	}
}

// TestRecordedRunSkipsCache: a span trace and an energy profile come
// from living through the run, so a second recorded RunSuite sharing a
// cache with the first must run live again and export the same
// capture, and neither run may touch the cache.
func TestRecordedRunSkipsCache(t *testing.T) {
	cache := &memCache{m: map[string][]byte{}}
	type capture struct {
		cached           bool
		sections, stacks int
	}
	record := func() capture {
		rec := EnableRecorder(true, true)
		defer DisableRecorder()
		var c capture
		RunSuite([]string{"tab3"}, Quick(), false, cache, func(r SuiteResult) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			c.cached = r.Cached
		})
		c.sections, c.stacks = len(rec.sections()), rec.Info().Stacks
		return c
	}
	first, second := record(), record()
	if first.cached || first.sections == 0 || first.stacks == 0 {
		t.Fatalf("first recorded run: %+v, want live with a trace and a profile", first)
	}
	if second != first {
		t.Fatalf("second recorded run %+v, want %+v", second, first)
	}
	if cache.gets != 0 || cache.puts != 0 {
		t.Fatalf("recorded runs touched the cache: %d gets, %d puts", cache.gets, cache.puts)
	}
}

// TestRunSuiteUnknownAndFailedContinue: an unknown id surfaces as an
// error result without stopping the rest of the request.
func TestRunSuiteUnknownAndFailedContinue(t *testing.T) {
	var got []SuiteResult
	RunSuite([]string{"tab1", "bogus", "fig1"}, Quick(), false, nil, func(r SuiteResult) {
		got = append(got, r)
	})
	if len(got) != 3 {
		t.Fatalf("emitted %d results, want 3", len(got))
	}
	if got[0].ID != "tab1" || got[0].Err != nil {
		t.Fatalf("tab1: %+v", got[0])
	}
	if got[1].ID != "bogus" || got[1].Err == nil {
		t.Fatal("unknown id did not error")
	}
	if got[2].ID != "fig1" || got[2].Err != nil || len(got[2].Output) == 0 {
		t.Fatal("experiment after the failure did not run")
	}
}

// TestRunSuiteEmitOrder: results arrive in request order regardless of
// completion order (fig1 is near-instant, tab3 is not).
func TestRunSuiteEmitOrder(t *testing.T) {
	ids := []string{"tab3", "fig1", "tab1"}
	var order []string
	RunSuite(ids, Quick(), false, nil, func(r SuiteResult) {
		order = append(order, r.ID)
	})
	if strings.Join(order, ",") != strings.Join(ids, ",") {
		t.Fatalf("emit order %v, want %v", order, ids)
	}
}

// TestWriteRendered covers both output formats.
func TestWriteRendered(t *testing.T) {
	tab := Table1()
	var text, csv bytes.Buffer
	if err := writeRendered(&text, tab, false); err != nil {
		t.Fatal(err)
	}
	if err := writeRendered(&csv, tab, true); err != nil {
		t.Fatal(err)
	}
	if text.String() != tab.String() || csv.String() != tab.CSV() {
		t.Fatal("writeRendered output mismatch")
	}
}

// TestFigureCSVOneRowPerPoint pins the raw-point CSV of the figures
// whose results are point sets: one header, then one row per point
// (fig2 lists Sandy Bridge-EP's 37 points before Haswell-EP's 43).
func TestFigureCSVOneRowPerPoint(t *testing.T) {
	for _, tc := range []struct {
		id, header string
		rows       int
	}{
		{"fig2", "arch,workload,cores,ac_w,rapl_w", 80},
		{"fig7", "arch,level,freq_ghz,relative,abs_gbs", 82},
		{"fig8", "level,cores,threads,freq_ghz,gbs", 420},
	} {
		d, _ := Lookup(tc.id)
		var buf bytes.Buffer
		if err := d.Run(Quick(), &buf, true); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if lines[0] != tc.header || len(lines)-1 != tc.rows {
			t.Errorf("%s: header %q and %d rows, want %q and %d", tc.id, lines[0], len(lines)-1, tc.header, tc.rows)
		}
		for _, l := range lines[1:] {
			if strings.Count(l, ",") != strings.Count(tc.header, ",") {
				t.Errorf("%s: row %q does not match the header's columns", tc.id, l)
				break
			}
		}
	}
}

// TestSeedZeroIsSuiteSeed: Options.Seed 0 stands for the suite seed
// at every seed site, so it renders what Seed 0x5eed renders. fig3
// draws an experiment RNG from the seed, extensions builds platforms
// from it (DVFSDynamicStudy, PCPSStudy), and fleet falls back to it for
// the variation seed.
func TestSeedZeroIsSuiteSeed(t *testing.T) {
	for _, id := range []string{"fig3", "extensions", "fleet"} {
		d, _ := Lookup(id)
		var zero, suite bytes.Buffer
		if err := d.Run(Options{Scale: 0.02}, &zero, false); err != nil {
			t.Fatalf("%s at Seed 0: %v", id, err)
		}
		if err := d.Run(Options{Scale: 0.02, Seed: 0x5eed}, &suite, false); err != nil {
			t.Fatalf("%s at Seed 0x5eed: %v", id, err)
		}
		if !bytes.Equal(zero.Bytes(), suite.Bytes()) {
			t.Errorf("%s: Seed 0 renders differently from Seed 0x5eed", id)
		}
	}
}

// errWriter fails after n bytes, for descriptor write-error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("write failed")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), io.ErrShortWrite
}

// TestDescriptorWriteErrorPropagates: descriptors report writer
// failures instead of dropping output silently.
func TestDescriptorWriteErrorPropagates(t *testing.T) {
	d, _ := Lookup("tab1")
	if err := d.Run(Quick(), &errWriter{}, false); err == nil {
		t.Fatal("write error swallowed")
	}
}

// TestHarnessSpansRecordSuiteActivity: a live suite run records one
// harness_experiment_wall_ns sample per experiment, one
// harness_point_wall_ns sample per sweep point and at least one
// harness_slot_wall_ns sample (the experiment's own slot), with no
// switch to turn on first.
func TestHarnessSpansRecordSuiteActivity(t *testing.T) {
	counts := func() (exps, points, slots int64) {
		for _, m := range obs.Snapshot() {
			switch m.Name {
			case "harness_experiment_wall_ns":
				exps = m.Count
			case "harness_point_wall_ns":
				points = m.Count
			case "harness_slot_wall_ns":
				slots = m.Count
			}
		}
		return
	}
	exps, points, slots := counts()
	swept := obs.ExpPoints.Value()
	RunSuite([]string{"tab3"}, Quick(), false, nil, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	})
	e, p, s := counts()
	exps, points, slots = e-exps, p-points, s-slots
	swept = obs.ExpPoints.Value() - swept
	if exps != 1 || swept == 0 || points != swept || slots < 1 {
		t.Fatalf("harness samples: %d experiments, %d points (%d swept), %d slots; want 1, %d, >= 1",
			exps, points, swept, slots, swept)
	}
}
