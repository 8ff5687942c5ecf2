package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hswsim/internal/obs"
)

// TestReportLeavesOutputByteIdentical is the golden gate for the
// observability layer: enabling -report (and the result cache, and
// neither) must leave the rendered experiment bytes on stdout exactly
// identical. It also checks the report itself — the manifest of a clean
// run must show the simulator actually doing work (events, forks,
// scheduler slots, cache traffic) and must show zero silent-failure
// events (cache put failures, invalid RAPL windows, empty statistics
// inputs).
func TestReportLeavesOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times at scale 0.25")
	}
	cacheDir := t.TempDir()
	reportDir := t.TempDir()
	base := []string{"-run", "all", "-scale", "0.25", "-seed", "0x5eed"}

	do := func(extra ...string) (stdout, stderr bytes.Buffer, code int) {
		code = run(append(append([]string{}, base...), extra...), &stdout, &stderr)
		return
	}

	// Run 1: cold cache, no report — populates cacheDir, counts misses.
	out1, err1, code1 := do("-cache-dir", cacheDir)
	if code1 != 0 {
		t.Fatalf("cold run exit %d, stderr:\n%s", code1, err1.String())
	}
	if out1.Len() == 0 {
		t.Fatal("cold run produced no output")
	}

	// Run 2: warm cache + report — replays cached bytes, counts hits.
	warmReport := filepath.Join(reportDir, "warm.json")
	out2, err2, code2 := do("-cache-dir", cacheDir, "-report", warmReport)
	if code2 != 0 {
		t.Fatalf("warm run exit %d, stderr:\n%s", code2, err2.String())
	}

	// Run 3: live (no cache) + report.
	liveReport := filepath.Join(reportDir, "live.json")
	out3, err3, code3 := do("-no-cache", "-report", liveReport)
	if code3 != 0 {
		t.Fatalf("live run exit %d, stderr:\n%s", code3, err3.String())
	}

	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Errorf("cached output differs from cold output (%d vs %d bytes)", out2.Len(), out1.Len())
	}
	if !bytes.Equal(out1.Bytes(), out3.Bytes()) {
		t.Errorf("-report run output differs from plain run (%d vs %d bytes)", out3.Len(), out1.Len())
	}

	var m obs.Manifest
	raw, err := os.ReadFile(liveReport)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	if m.Tool != "experiments" || len(m.Experiments) == 0 {
		t.Fatalf("manifest missing run info: tool=%q experiments=%d", m.Tool, len(m.Experiments))
	}
	for _, e := range m.Experiments {
		if e.Err != "" {
			t.Errorf("experiment %s failed: %s", e.ID, e.Err)
		}
		if e.Cached {
			t.Errorf("experiment %s cached in a -no-cache run", e.ID)
		}
	}

	// The simulator must visibly have done work. Counters are cumulative
	// for the process, so this manifest covers all three runs above.
	mustPositive := []string{
		"sim_events_dispatched_total",
		"sim_forks_total",
		"sched_slot_acquires_total",
		"exp_sweep_points_total",
		"expcache_misses_total", // run 1 started cold
		"expcache_hits_total",   // run 2 replayed run 1's entries
		"power_segments_replayed_total",
		"power_segments_regrouped_total",
	}
	for _, name := range mustPositive {
		met, ok := m.Metric(name)
		if !ok {
			t.Errorf("manifest missing metric %s", name)
			continue
		}
		if met.Value <= 0 {
			t.Errorf("%s = %d, want > 0", name, met.Value)
		}
	}
	// ... and the silent-failure counters of the bug fixes must all be
	// zero on a clean run.
	mustZero := []string{
		"expcache_put_failures_total",
		"rapl_window_errors_total",
		"stats_empty_input_total",
	}
	for _, name := range mustZero {
		met, ok := m.Metric(name)
		if !ok {
			t.Errorf("manifest missing metric %s", name)
			continue
		}
		if met.Value != 0 {
			t.Errorf("%s = %d, want 0 on a clean run", name, met.Value)
		}
	}
}

// TestUsageErrors pins the argument-validation exit code.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown id: exit %d, want 2", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("unknown experiment id")) {
		t.Fatalf("missing unknown-id diagnostic, got:\n%s", stderr.String())
	}
	for _, args := range [][]string{
		{"-run", "fleet", "-fleet-nodes", "4097"},
		{"-run", "fleet", "-fleet-nodes", "-1"},
		{"-run", "tab1", "-scale", "NaN"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(append(args, "-no-cache"), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, stdout.Len())
		}
	}
}

// TestHelpExitsZero is the regression test for the -h/-help path: with
// flag.ContinueOnError, flag.ErrHelp used to fall through the generic
// parse-error branch and exit 2 — breaking `experiments -h && ...`
// scripting and CI probes. Usage on request is a success.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "-help", "--help"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr); code != 0 {
			t.Errorf("run(%q) = %d, want 0", arg, code)
		}
		// The usage text itself still lands on stderr...
		if !bytes.Contains(stderr.Bytes(), []byte("-run")) {
			t.Errorf("run(%q) printed no usage text", arg)
		}
		// ...and no experiment output leaks to stdout.
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote %d bytes to stdout", arg, stdout.Len())
		}
	}
	// A genuine flag error still exits 2.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(bad flag) = %d, want 2", code)
	}
}

// TestCSVWithoutCSVFormSharesCacheEntry: fig3 has no CSV form, so
// -csv renders its text figure and must replay the plain run's cache
// entry instead of storing a second, identical one.
func TestCSVWithoutCSVFormSharesCacheEntry(t *testing.T) {
	cacheDir := t.TempDir()
	var outs [2]bytes.Buffer
	for i, extra := range [][]string{nil, {"-csv"}} {
		var stderr bytes.Buffer
		args := append([]string{"-run", "fig3", "-scale", "0.05", "-v", "-cache-dir", cacheDir}, extra...)
		if code := run(args, &outs[i], &stderr); code != 0 {
			t.Fatalf("run %v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		if cached := strings.Contains(stderr.String(), "fig3: cache hit"); cached != (i == 1) {
			t.Errorf("run %v: cache hit %v, want %v; stderr:\n%s", args, cached, i == 1, stderr.String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("-csv changed fig3's output")
	}
	entries := 0
	err := filepath.Walk(cacheDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") {
			entries++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 {
		t.Errorf("%d cache entries for fig3 with and without -csv, want 1", entries)
	}
}
