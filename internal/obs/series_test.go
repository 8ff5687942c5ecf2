package obs

import (
	"sync"
	"testing"
)

func TestSeriesIndicesMonotoneUnderConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 200
	s := NewSeries(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add([]Metric{{Name: "m", Value: int64(i)}})
			}
		}()
	}
	wg.Wait()
	all := s.Since(0)
	if len(all) != writers*perWriter {
		t.Fatalf("retained %d samples, want %d", len(all), writers*perWriter)
	}
	// Indices are exactly 1..N with ring order == index order: the
	// index is assigned under the same lock as the append, so no
	// interleaving can reorder or duplicate.
	for i, sm := range all {
		if sm.Index != int64(i+1) {
			t.Fatalf("sample %d has index %d, want %d", i, sm.Index, i+1)
		}
	}
}

func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 10; i++ {
		s.Add([]Metric{{Name: "m", Value: int64(i)}})
	}
	all := s.Since(0)
	if len(all) != 4 {
		t.Fatalf("retained %d samples, want 4", len(all))
	}
	for i, sm := range all {
		want := int64(7 + i)
		if sm.Index != want {
			t.Fatalf("sample %d index = %d, want %d (oldest evicted first)", i, sm.Index, want)
		}
		if sm.Metrics[0].Value != want {
			t.Fatalf("sample %d payload = %d, want %d", i, sm.Metrics[0].Value, want)
		}
	}
	// Replay cursor semantics: Since(after) is exclusive.
	if got := s.Since(9); len(got) != 1 || got[0].Index != 10 {
		t.Fatalf("Since(9) = %v, want just index 10", got)
	}
	if got := s.Since(10); len(got) != 0 {
		t.Fatalf("Since(10) returned %d samples, want 0", len(got))
	}
}

func TestSeriesWaitWakesOnAdd(t *testing.T) {
	s := NewSeries(2)
	ch := s.Wait()
	select {
	case <-ch:
		t.Fatal("Wait channel closed before any Add")
	default:
	}
	done := make(chan int64, 1)
	go func() {
		<-ch
		got := s.Since(0)
		done <- got[len(got)-1].Index
	}()
	s.Add([]Metric{{Name: "m"}})
	if idx := <-done; idx != 1 {
		t.Fatalf("waiter saw tail index %d, want 1", idx)
	}
	// A Wait channel fetched before an Add that already happened is
	// closed — the drain-then-wait loop cannot lose a wakeup.
	ch2 := s.Wait()
	s.Add([]Metric{{Name: "m"}})
	select {
	case <-ch2:
	default:
		t.Fatal("pre-Add Wait channel not closed by Add")
	}
}

func TestSeriesSnapshotsAreNameSorted(t *testing.T) {
	// The serving path stores Registry.Snapshot() output; assert the
	// contract the stream relies on (sorted by name) holds end to end.
	r := NewRegistry()
	r.Counter("zzz_total", "").Inc()
	r.Counter("aaa_total", "").Inc()
	r.Gauge("mmm", "").Set(3)
	s := NewSeries(2)
	s.Add(r.Snapshot())
	all := s.Since(0)
	if len(all) != 1 {
		t.Fatalf("series holds %d samples, want 1", len(all))
	}
	sm := all[0]
	for i := 1; i < len(sm.Metrics); i++ {
		if sm.Metrics[i-1].Name > sm.Metrics[i].Name {
			t.Fatalf("snapshot not name-sorted: %q before %q",
				sm.Metrics[i-1].Name, sm.Metrics[i].Name)
		}
	}
}
