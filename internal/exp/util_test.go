package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}
	if d := o.dur(10 * sim.Second); d != 5*sim.Second {
		t.Errorf("dur = %v, want 5s", d)
	}
	if c := o.count(100); c != 50 {
		t.Errorf("count = %d, want 50", c)
	}
	// Floors: durations never collapse below 1 ms, counts below 3.
	tiny := Options{Scale: 1e-9}
	if d := tiny.dur(10 * sim.Second); d != sim.Millisecond {
		t.Errorf("tiny dur = %v, want 1ms floor", d)
	}
	if c := tiny.count(1000); c != 3 {
		t.Errorf("tiny count = %d, want 3 floor", c)
	}
	// Zero/negative scale behaves like 1.0.
	zero := Options{}
	if d := zero.dur(2 * sim.Second); d != 2*sim.Second {
		t.Errorf("zero-scale dur = %v", d)
	}
	if Defaults().Scale != 1.0 || Quick().Scale >= Defaults().Scale {
		t.Error("preset options wrong")
	}
}

func TestSettingLabel(t *testing.T) {
	spec := uarch.E52680v3()
	if got := settingLabel(spec, 2500); got != "2.5" {
		t.Errorf("label(2500) = %q", got)
	}
	if got := settingLabel(spec, spec.TurboSettingMHz()); got != "Turbo" {
		t.Errorf("label(turbo) = %q", got)
	}
}

func TestSweepSettings(t *testing.T) {
	spec := uarch.E52680v3()
	s := sweepSettings(spec, 2100)
	want := []uarch.MHz{spec.TurboSettingMHz(), 2500, 2400, 2300, 2200, 2100}
	if len(s) != len(want) {
		t.Fatalf("sweep = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", s, want)
		}
	}
}

func TestParallelMapOrderAndErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := parallelMap(Options{}, items, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out of order: %v", out)
		}
	}
	wantErr := errors.New("boom")
	_, err = parallelMap(Options{}, items, func(x int) (int, error) {
		if x == 5 {
			return 0, wantErr
		}
		return x, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	// Empty input.
	empty, err := parallelMap(Options{}, nil, func(x int) (int, error) { return x, nil })
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty map: %v %v", empty, err)
	}
}

func TestFig3ClassStringer(t *testing.T) {
	for _, c := range []Fig3Class{RandomDelay, InstantAfterChange, Delay400us, Delay500us, Fig3Class(9)} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestLevelStringer(t *testing.T) {
	if LevelL3.String() != "L3" || LevelDRAM.String() != "DRAM" {
		t.Error("level stringer wrong")
	}
}

func TestAblationResultMetricMissing(t *testing.T) {
	r := &AblationResult{Name: "x"}
	if r.Metric("nope", "nothing") != 0 {
		t.Error("missing metric should be 0")
	}
}

func TestFig1Render(t *testing.T) {
	out := Fig1Render()
	for _, want := range []string{"12-core die", "18-core die", "8-core + 10-core", "IMC", "buffered queues"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 render missing %q", want)
		}
	}
}

// TestParallelMapShortCircuit: after an item fails, undispatched items
// must not start, and every error that did occur is reported.
func TestParallelMapShortCircuit(t *testing.T) {
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	e3 := errors.New("e3")
	e4 := errors.New("e4")
	var started []int
	_, err := parallelMap(Options{}, items, func(x int) (int, error) {
		started = append(started, x)
		switch x {
		case 3:
			return 0, e3
		case 4:
			return 0, e4
		}
		return x, nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("first error lost: %v", err)
	}
	// With one serial worker the failure at item 3 stops feeding; the
	// channel handshake allows at most one already-queued item after it.
	if len(started) > 5 {
		t.Fatalf("short-circuit did not stop feeding: started %v", started)
	}
	for _, x := range started {
		if x == 4 && !errors.Is(err, e4) {
			t.Fatalf("error from started item 4 dropped: %v", err)
		}
	}
}

// TestSerialVsParallelByteIdentical: running the experiment harness on
// one worker must reproduce the parallel run byte for byte — parallelism
// only affects wall-clock time, never results.
func TestSerialVsParallelByteIdentical(t *testing.T) {
	par, parIdle, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser, serIdle, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%#v", parIdle), fmt.Sprintf("%#v", serIdle); a != b {
		t.Fatalf("idle row diverged: %s vs %s", a, b)
	}
	if len(par) != len(ser) {
		t.Fatalf("row counts differ: %d vs %d", len(par), len(ser))
	}
	for i := range par {
		a, b := fmt.Sprintf("%#v", par[i]), fmt.Sprintf("%#v", ser[i])
		if a != b {
			t.Fatalf("row %d diverged:\n parallel: %s\n serial:   %s", i, a, b)
		}
	}
}

// TestExperimentDeterminism guards the reproducibility claim at the
// experiment level: identical options give identical Table III rows.
func TestExperimentDeterminism(t *testing.T) {
	a, _, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
