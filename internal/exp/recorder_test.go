package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
)

// captureTrace runs one experiment under a fresh span-trace recorder and
// returns the experiment output plus the recorder.
func captureTrace(t *testing.T, id string) ([]byte, *Recorder) {
	t.Helper()
	rec := EnableRecorder(true, false)
	defer DisableRecorder()
	var out []byte
	RunSuite([]string{id}, Quick(), false, nil, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		out = r.Output
	})
	return out, rec
}

func TestSpanTraceRegistersPlatforms(t *testing.T) {
	_, st := captureTrace(t, "fig5")
	infos := st.Infos()
	if len(infos) == 0 {
		t.Fatal("no collectors registered for fig5")
	}
	if infos[0].Label != "fig5#0" {
		t.Fatalf("first section = %q, want fig5#0", infos[0].Label)
	}
	if infos[0].Spans == 0 {
		t.Fatal("registered collector recorded no spans")
	}
}

func TestSpanTraceChromeExportValidAndDeterministic(t *testing.T) {
	_, st1 := captureTrace(t, "fig5")
	_, st2 := captureTrace(t, "fig5")
	var a, b bytes.Buffer
	if err := st1.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := st2.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("invalid Chrome JSON (%d bytes)", a.Len())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traced runs exported different Chrome JSON")
	}
	var tl bytes.Buffer
	if err := st1.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "== fig5#0:") {
		t.Fatalf("timeline missing section header:\n%.200s", tl.String())
	}
}

func TestSpanTraceLeavesExperimentOutputUnchanged(t *testing.T) {
	// Tracing must be strictly out-of-band: the rendered experiment
	// bytes with a recorder installed are identical to an untraced run.
	traced, _ := captureTrace(t, "fig5")
	var plain []byte
	RunSuite([]string{"fig5"}, Quick(), false, nil, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		plain = r.Output
	})
	if !bytes.Equal(traced, plain) {
		t.Fatal("span tracing changed the experiment output")
	}
}

// TestFig3TraceReproducesTransitionLatencies asserts the paper's
// p-state transition envelope from the exported spans rather than from
// internal state: every transition the Figure 3 measurement drove must
// appear in the trace with a duration inside the grid-bounded envelope,
// and beyond the inapplicable 10 us ACPI estimate at the top end.
func TestFig3TraceReproducesTransitionLatencies(t *testing.T) {
	_, st := captureTrace(t, "fig3")
	secs := st.sections()
	// One platform per measurement class.
	if len(secs) != 4 {
		t.Fatalf("fig3 registered %d platforms, want 4", len(secs))
	}
	const grid = 500 * sim.Microsecond
	for _, sec := range secs {
		var n int
		var longest sim.Time
		for _, sp := range sec.C.Spans() {
			if sp.Kind != trace.SpanPState || sp.CPU != 0 {
				continue
			}
			n++
			longest = max(longest, sp.Duration())
			// One grid period (plus jitter and the regulator switch)
			// bounds every transition; nothing is instantaneous.
			if sp.Duration() <= 0 || sp.Duration() > 2*grid {
				t.Errorf("%s: span %v outside (0, %v]", sec.Name, sp, 2*grid)
			}
		}
		if n < 10 {
			t.Fatalf("%s: %d transition spans, want the measured series", sec.Name, n)
		}
		if longest <= cstate.ACPITransitionLatencyPState {
			t.Errorf("%s: max %v never exceeds the 10 us ACPI estimate — grid waits missing",
				sec.Name, longest)
		}
	}
}

// renderProfile runs the given experiments with the energy-profile
// recorder installed and returns (stdout bytes, folded profile bytes).
func renderProfile(t *testing.T, ids []string, o Options) ([]byte, []byte) {
	t.Helper()
	rec := EnableEnergyProfile()
	defer DisableEnergyProfile()
	var out bytes.Buffer
	RunSuite(ids, o, false, nil, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		out.Write(r.Output)
	})
	var folded bytes.Buffer
	if err := rec.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), folded.Bytes()
}

// TestEnergyProfileSerialVsParallelByteIdentical is acceptance
// criterion (b): the exported profile of a forked-parallel sweep must
// be byte-identical to the strictly serial reference. tab3/tab4 fork
// every sweep point through forkMap, so the profile's correctness
// hinges on the point-ordered delta merge; fig2 adds a second
// platform construction per experiment.
func TestEnergyProfileSerialVsParallelByteIdentical(t *testing.T) {
	ids := []string{"tab3", "fig2"}
	o := Quick()
	parOut, parProf := renderProfile(t, ids, o)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	serOut, serProf := renderProfile(t, ids, o)
	if !bytes.Equal(parOut, serOut) {
		t.Fatal("experiment output diverged between serial and parallel runs")
	}
	if len(parProf) == 0 {
		t.Fatal("parallel run produced an empty profile")
	}
	if !bytes.Equal(parProf, serProf) {
		i := 0
		for ; i < len(parProf) && i < len(serProf) && parProf[i] == serProf[i]; i++ {
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			hi := i + 80
			if hi > len(b) {
				hi = len(b)
			}
			return string(b[lo:hi])
		}
		t.Fatalf("profiles diverge at byte %d:\nparallel: %q\nserial:   %q",
			i, clip(parProf), clip(serProf))
	}
}

// TestEnergyProfileRepeatable: two identical profiled runs emit
// byte-identical folded profiles (no wall-clock, map-order or
// scheduling artifacts in the export).
func TestEnergyProfileRepeatable(t *testing.T) {
	ids := []string{"tab3"}
	o := Quick()
	_, p1 := renderProfile(t, ids, o)
	_, p2 := renderProfile(t, ids, o)
	if len(p1) == 0 {
		t.Fatal("empty profile")
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("repeated profiled runs emitted different profiles")
	}
}

// TestEnergyProfileDisabledByDefault: without a recorder installed,
// platforms run unrecorded (options unmarked, no collector armed).
func TestEnergyProfileDisabledByDefault(t *testing.T) {
	var o Options
	if o.liveID != "" {
		t.Fatal("zero Options carries an experiment mark")
	}
	if activeRecorder.Load() != nil {
		t.Fatal("recorder installed without EnableRecorder")
	}
}

// TestRecorderBothMatchesEach: cmd/experiments arms the span trace and
// the energy profile on one recorder, and each export must come out
// byte-identical to a recorder that captures it alone.
func TestRecorderBothMatchesEach(t *testing.T) {
	ids := []string{"tab3", "fig5"}
	record := func(spans, energy bool) (chrome, folded []byte) {
		rec := EnableRecorder(spans, energy)
		defer DisableRecorder()
		RunSuite(ids, Quick(), false, nil, func(r SuiteResult) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
		})
		var c, f bytes.Buffer
		if err := rec.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteFolded(&f); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), f.Bytes()
	}
	bothChrome, bothFolded := record(true, true)
	traceOnly, noProfile := record(true, false)
	noTrace, profileOnly := record(false, true)
	if !bytes.Equal(bothChrome, traceOnly) {
		t.Error("arming the energy profile changed the span trace")
	}
	if !bytes.Equal(bothFolded, profileOnly) {
		t.Error("arming the span trace changed the energy profile")
	}
	if len(profileOnly) == 0 || len(noProfile) != 0 {
		t.Errorf("folded profile: %d bytes armed, %d bytes unarmed", len(profileOnly), len(noProfile))
	}
	if empty := []byte("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); !bytes.HasPrefix(noTrace, empty) || len(noTrace) >= len(traceOnly) {
		t.Errorf("chrome export without a span trace: %q", noTrace)
	}
}
