package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Fatalf("FromDuration = %v, want %v", got, 3*Millisecond)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Fatalf("Duration = %v, want 2s", got)
	}
	if got := (1500 * Microsecond).Seconds(); got != 0.0015 {
		t.Fatalf("Seconds = %v, want 0.0015", got)
	}
	if got := (42 * Microsecond).Micros(); got != 42 {
		t.Fatalf("Micros = %v, want 42", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Drain(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Drain(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want insertion order", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.At(10, func(now Time) {
		e.At(now+5, func(Time) { hits++ })
	})
	e.RunUntil(20)
	if hits != 1 {
		t.Fatalf("nested event did not run")
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(10, func(Time) { ran = true })
	if !e.Cancel(id) {
		t.Fatalf("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatalf("second Cancel returned true")
	}
	e.Drain(0)
	if ran {
		t.Fatalf("cancelled event ran")
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var times []Time
	stop := e.Every(100, 50, func(now Time) { times = append(times, now) })
	e.RunUntil(300)
	stop()
	e.RunUntil(500)
	want := []Time{100, 150, 200, 250, 300}
	if len(times) != len(want) {
		t.Fatalf("Every fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("Every firings = %v, want %v", times, want)
		}
	}
}

func TestEngineEveryStopFromWithin(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Every(0, 10, func(Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	e.Drain(1000)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Drain(0)
	defer func() {
		if recover() == nil {
			t.Fatalf("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1234)
	if e.Now() != 1234 {
		t.Fatalf("Now = %v, want 1234", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatalf("forks with different labels produced identical first draw")
	}
	// Forking must not consume from the parent stream.
	p2 := NewRNG(7)
	p2.Fork(1)
	p2.Fork(2)
	a, b := parent.Uint64(), p2.Uint64()
	if a != b {
		t.Fatalf("forking consumed parent stream: %d != %d", a, b)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("Normal mean = %v, want ~5", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestRNGJitterClamp(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(10, 50)
		if j < 0 {
			t.Fatalf("Jitter returned negative duration %v", j)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	r := NewRNG(5)
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}
