package core

import (
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/workload"
)

// These tests assert the paper's latency numbers from the trace itself:
// the span subsystem is only trustworthy as an observability surface if
// the durations it records are the durations the model produced.

// spansOf returns the spans of kind k on cpu, in their given order.
func spansOf(spans []trace.Span, k trace.SpanKind, cpu int) []trace.Span {
	var out []trace.Span
	for _, sp := range spans {
		if sp.Kind == k && sp.CPU == cpu {
			out = append(out, sp)
		}
	}
	return out
}

// wakeScenario sleeps cpu 1 into st, wakes it from cpu 0, and returns
// the system, the wake result and the sleep/wake-issue instants.
func wakeScenario(t *testing.T, st cstate.State) (*System, WakeResult, sim.Time, sim.Time) {
	t.Helper()
	s := newSys(t)
	s.EnableTrace(4096)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	sleepAt := s.Now()
	if err := s.SleepCore(1, st); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	wakeAt := s.Now()
	res, err := s.WakeCore(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	return s, res, sleepAt, wakeAt
}

func TestSpanWakeDurationMatchesWakeResult(t *testing.T) {
	for _, st := range []cstate.State{cstate.C3, cstate.C6} {
		s, res, _, wakeAt := wakeScenario(t, st)
		wakes := spansOf(s.Trace().Spans(), trace.SpanWake, 1)
		if len(wakes) != 1 {
			t.Fatalf("%v: wake spans = %v", st, wakes)
		}
		sp := wakes[0]
		// The span IS the measurement: waker store to wakee-in-C0.
		if sp.Start != wakeAt || sp.Duration() != res.Latency {
			t.Errorf("%v: span %v, want start %v dur %v", st, sp, wakeAt, res.Latency)
		}
		if !strings.Contains(sp.Label, st.String()) {
			t.Errorf("%v: span label %q misses the origin state", st, sp.Label)
		}
		// Paper headline (Figures 5/6 vs the firmware tables): measured
		// exits are far below the ACPI-advertised latency, yet well above
		// zero — the span must carry a physically plausible duration.
		if sp.Duration() >= cstate.ACPITableLatency(st) {
			t.Errorf("%v: span %v not below ACPI table %v",
				st, sp.Duration(), cstate.ACPITableLatency(st))
		}
		if sp.Duration() < 5*sim.Microsecond {
			t.Errorf("%v: span %v implausibly short", st, sp.Duration())
		}
	}
}

func TestSpanCStateResidencyBracketsSleep(t *testing.T) {
	// C3, not C6: idle cores start out in C6, and sleeping into the
	// state a core is already in extends the existing episode rather
	// than opening a new one.
	s, res, sleepAt, wakeAt := wakeScenario(t, cstate.C3)
	var c3 []trace.Span
	for _, sp := range spansOf(s.Trace().Spans(), trace.SpanCState, 1) {
		if sp.Label == "C3" {
			c3 = append(c3, sp)
		}
	}
	if len(c3) != 1 {
		t.Fatalf("C3 residency spans = %v", c3)
	}
	sp := c3[0]
	// Residency runs from the idle-governor decision until the wake
	// latency has elapsed and the core executes again.
	if sp.Start != sleepAt || sp.End != wakeAt+res.Latency {
		t.Errorf("residency %v, want [%v, %v]", sp, sleepAt, wakeAt+res.Latency)
	}
	// The successor C0 episode must be open from exactly that instant.
	open := spansOf(s.Trace().Open(s.Now()), trace.SpanCState, 1)
	if len(open) != 1 || open[0].Label != "C0" || open[0].Start != sp.End {
		t.Errorf("C0 successor = %v, want open C0 from %v", open, sp.End)
	}
}

func TestSpanPStateTransitionDelays(t *testing.T) {
	s := newSys(t)
	s.EnableTrace(8192)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	// Walk the p-state range one setting at a time so every request
	// produces one grid-aligned transition (Section VI-A procedure).
	spec := s.Spec()
	for f := spec.BaseMHz; f >= 1200; f -= spec.PStateStep {
		if err := s.SetPState(0, f); err != nil {
			t.Fatal(err)
		}
		s.Run(5 * sim.Millisecond)
	}
	spans := spansOf(s.Trace().Spans(), trace.SpanPState, 0)
	if len(spans) < 5 {
		t.Fatalf("p-state spans = %d, want one per setting", len(spans))
	}
	grid := sim.Time(spec.PStateGridPeriodUS * float64(sim.Microsecond))
	var longest, total sim.Time
	for _, sp := range spans {
		// Request-to-complete is bounded by one full grid period (plus
		// jitter and the regulator switch) — and never instantaneous.
		if sp.Duration() <= 0 || sp.Duration() > 2*grid {
			t.Errorf("transition span %v outside (0, %v]", sp, 2*grid)
		}
		longest = max(longest, sp.Duration())
		total += sp.Duration()
	}
	// The paper's Section VI-A point: actual transition delays blow
	// through the 10 us ACPI estimate, because requests wait for the
	// next PCU grid opportunity (mean ~ half a 500 us period).
	if longest <= cstate.ACPITransitionLatencyPState {
		t.Errorf("max transition %v does not exceed the ACPI estimate %v",
			longest, cstate.ACPITransitionLatencyPState)
	}
	if mean := total / sim.Time(len(spans)); mean > grid {
		t.Errorf("mean transition %v above one grid period %v", mean, grid)
	}
}

func TestSpanPStateSwitchNestsInTransition(t *testing.T) {
	s := newSys(t)
	s.EnableTrace(8192)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	s.SetPState(0, 2000)
	s.Run(10 * sim.Millisecond)
	full := spansOf(s.Trace().Spans(), trace.SpanPState, 0)
	hw := spansOf(s.Trace().Spans(), trace.SpanPStateSwitch, 0)
	if len(full) == 0 || len(full) != len(hw) {
		t.Fatalf("spans: %d full, %d switch — want equal and nonzero", len(full), len(hw))
	}
	strict := 0
	for i := range full {
		// The hardware switch (grant..complete) nests inside the full
		// transition (request..complete): same end, no earlier start.
		// For PCU-autonomous transitions (no software request) the two
		// coincide; for requested ones the full span is strictly longer
		// by the wait for the next grid opportunity.
		if hw[i].End != full[i].End || hw[i].Start < full[i].Start {
			t.Errorf("switch %v not nested in %v", hw[i], full[i])
		}
		if hw[i].Duration() < full[i].Duration() {
			strict++
		}
	}
	if strict == 0 {
		t.Error("no transition shows a request-to-grant wait; the explicit SetPState should")
	}
}
