package sim

import "testing"

// BenchmarkEngineAtDispatch measures raw one-shot schedule+dispatch
// churn: the At/Step path every platform event pays.
func BenchmarkEngineAtDispatch(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+10, fn)
		e.Step()
	}
}

// BenchmarkEngineAfterChain measures a self-rescheduling event chain
// (the PCU grid-tick pattern: each dispatch schedules its successor).
func BenchmarkEngineAfterChain(b *testing.B) {
	e := NewEngine()
	var tick Event
	tick = func(Time) { e.After(500, tick) }
	e.After(500, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineEveryTick measures the periodic-timer hot path: one
// Every series driven tick by tick, the meter/governor steady state.
func BenchmarkEngineEveryTick(b *testing.B) {
	e := NewEngine()
	n := 0
	e.Every(0, 100, func(Time) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if n != b.N {
		b.Fatalf("ticks = %d, want %d", n, b.N)
	}
}

// BenchmarkEngineEveryRunUntil measures many concurrent periodic timers
// advanced through RunUntil — the full steady-state dispatch loop with
// same-timestamp events (all series share phase and period).
func BenchmarkEngineEveryRunUntil(b *testing.B) {
	e := NewEngine()
	n := 0
	for i := 0; i < 16; i++ {
		e.Every(0, 100, func(Time) { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(100)
	}
}

// BenchmarkEngineForkRearm measures the engine half of a platform
// fork: spawn a child engine and re-arm a platform-sized set of
// pending timers (2 grid ticks + meter + a completion) on it.
func BenchmarkEngineForkRearm(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	ids := []EventID{
		e.EveryID(500, 500, fn),
		e.EveryID(600, 600, fn),
		e.EveryID(1000, 1000, fn),
		e.At(e.Now()+50, fn),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := e.Fork()
		for _, id := range ids {
			child.Rearm(id, fn)
		}
	}
}

// BenchmarkEngineMixedQueue measures dispatch with a populated queue:
// events percolate through a heap holding many pending entries.
func BenchmarkEngineMixedQueue(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	for i := 0; i < 1024; i++ {
		e.At(Time(1e12)+Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+10, fn)
		e.Step()
	}
}

// BenchmarkEngineDensePeriodic measures steady-state stepping with 1k
// concurrent Every series on mixed periods. A simulated node holds a
// few dozen pending events, so this row records the heap's O(log n)
// cost at a depth far beyond any real run, not a workload the suite
// sees.
func BenchmarkEngineDensePeriodic(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	periods := []Time{500, 1000, 2500, 5000}
	for i := 0; i < 1000; i++ {
		p := periods[i%len(periods)]
		e.EveryID(p, p, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
