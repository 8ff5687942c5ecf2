package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/pstate"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/workload"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	s := newSys(t)
	tr := s.EnableTrace(8192)
	if s.Trace() != tr {
		t.Fatal("Trace() accessor broken")
	}
	if err := s.AssignKernel(0, workload.DGEMM(), 2); err != nil {
		t.Fatal(err)
	}
	s.SetPState(0, 2000)
	s.Run(20 * sim.Millisecond)
	if err := s.AssignKernel(0, nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * sim.Millisecond)

	q := tr.Query()
	for _, k := range []trace.SpanKind{
		trace.SpanPState, trace.SpanPStateSwitch,
		trace.SpanAVX,       // DGEMM enters AVX mode; idling exits it
		trace.SpanCState,    // C6 -> C0 on assignment, C0 -> C6 on idling
		trace.SpanUncore,    // retargeting after workload changes
		trace.SpanPkgCState, // leaving the initial package sleep state
	} {
		if q.Kind(k).Count() == 0 {
			t.Errorf("no completed %v span traced", k)
		}
	}
	if !strings.Contains(tr.RenderSpans(5), "cpu") {
		t.Error("render missing cpu context")
	}
}

func TestTracePowerLimit(t *testing.T) {
	s := newSys(t)
	tr := s.EnableTrace(128)
	if err := s.SetPowerLimitW(1, 90); err != nil {
		t.Fatal(err)
	}
	var limit []trace.Span
	for _, sp := range tr.Open(s.Now()) {
		if sp.Kind == trace.SpanPowerLimit && sp.Socket == 1 {
			limit = append(limit, sp)
		}
	}
	raw := uint64(90*8) | 1<<15
	if want := fmt.Sprintf("90.0 W (raw %#x)", raw); len(limit) != 1 || limit[0].Label != want {
		t.Fatalf("open socket-1 power-limit spans = %v, want one labelled %q", limit, want)
	}
	if s.Socket(1).PCU.TDPWatts() != 90 {
		t.Fatalf("limit not applied: %v", s.Socket(1).PCU.TDPWatts())
	}
	// Disable: restores rated TDP.
	if err := s.SetPowerLimitW(1, 0); err != nil {
		t.Fatal(err)
	}
	if s.Socket(1).PCU.TDPWatts() != 120 {
		t.Fatalf("disable did not restore TDP: %v", s.Socket(1).PCU.TDPWatts())
	}
	if err := s.SetPowerLimitW(9, 50); err == nil {
		t.Fatal("bad socket accepted")
	}
}

// TestPStateSpansFromDomain requires every p-state span pair to be the
// domain's own record of a landed transition: SpanPState from
// RequestedAt and SpanPStateSwitch from GrantedAt, both ending at
// CompletedAt and reading From -> To. Tracing starts either with the
// platform or while core 0's requested transition is in flight; that
// transition's spans must still start at its request and grant.
func TestPStateSpansFromDomain(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"haswell-grid", DefaultConfig()},
		{"sandybridge-immediate", SandyBridgeConfig()},
	} {
		for _, midFlight := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/midflight=%v", tc.name, midFlight), func(t *testing.T) {
				s, err := NewSystem(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				traceOn := sim.Time(0)
				if !midFlight {
					s.EnableTrace(1 << 14)
				}
				// Step in 1 us, below any switching time, so every landed
				// transition is seen as core 0's LastTransition.
				var landed []pstate.Transition
				step := func(d sim.Time) {
					for end := s.Now() + d; s.Now() < end; {
						s.Run(sim.Microsecond)
						x, ok := s.Core(0).Domain().LastTransition()
						if ok && (len(landed) == 0 || landed[len(landed)-1] != x) {
							landed = append(landed, x)
						}
					}
				}
				if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
					t.Fatal(err)
				}
				step(5 * sim.Millisecond)
				if err := s.SetPState(0, 1500); err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					if _, ok := s.Core(0).Domain().InFlight(); ok {
						break
					}
					if i == 2000 {
						t.Fatal("the request started no transition within 2 ms")
					}
					step(sim.Microsecond)
				}
				if midFlight {
					traceOn = s.Now()
					s.EnableTrace(1 << 14)
				}
				step(3 * sim.Millisecond)

				var want []trace.Span
				for _, x := range landed {
					if x.CompletedAt <= traceOn {
						continue
					}
					label := fmt.Sprintf("%v -> %v", x.From, x.To)
					want = append(want,
						trace.Span{Kind: trace.SpanPState, Socket: 0, CPU: 0,
							Start: x.RequestedAt, End: x.CompletedAt, Label: label},
						trace.Span{Kind: trace.SpanPStateSwitch, Socket: 0, CPU: 0,
							Start: x.GrantedAt, End: x.CompletedAt, Label: label})
				}
				var got []trace.Span
				for _, sp := range s.Trace().Spans() {
					if (sp.Kind == trace.SpanPState || sp.Kind == trace.SpanPStateSwitch) && sp.CPU == 0 {
						got = append(got, sp)
					}
				}
				if len(want) == 0 {
					t.Fatalf("no transition landed after tracing began at %v: %v", traceOn, landed)
				}
				if midFlight && want[1].Start > traceOn {
					t.Fatalf("no transition was in flight when tracing began at %v: %v", traceOn, landed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("p-state spans\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	s := newSys(t)
	if s.Trace() != nil {
		t.Fatal("tracing should be off by default")
	}
	// Everything still works with the nil recorder.
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * sim.Millisecond)
	if err := s.SleepCore(1, cstate.C3); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
}
