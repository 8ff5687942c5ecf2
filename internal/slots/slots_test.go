package slots

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireCtxImmediate(t *testing.T) {
	p := New(1)
	if err := p.AcquireCtx(context.Background()); err != nil {
		t.Fatalf("AcquireCtx on a free pool: %v", err)
	}
	p.Release()
}

func TestAcquireCtxCancelledWhileWaiting(t *testing.T) {
	p := New(1)
	p.Acquire() // occupy the only slot
	defer p.Release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.AcquireCtx(ctx) }()
	// Give the waiter time to block, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AcquireCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled AcquireCtx never returned")
	}
}

func TestAcquireCtxGetsSlotWhenReleased(t *testing.T) {
	p := New(1)
	p.Acquire()
	done := make(chan error, 1)
	go func() { done <- p.AcquireCtx(context.Background()) }()
	time.Sleep(5 * time.Millisecond)
	p.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AcquireCtx after release: %v", err)
		}
		p.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireCtx never acquired the freed slot")
	}
}

// TestQueueShedsAtDepth pins the admission contract: with the pool full
// and the queue holding its maximum number of waiters, the next Acquire
// fails immediately with ErrSaturated instead of queueing.
func TestQueueShedsAtDepth(t *testing.T) {
	p := New(1)
	q := NewQueue(p, 1)
	if err := q.Acquire(context.Background()); err != nil {
		t.Fatalf("first Acquire (free pool): %v", err)
	}

	// One waiter is admitted to the queue...
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- q.Acquire(context.Background()) }()
	// Wait until the waiter is actually counted.
	for i := 0; q.depth.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if q.depth.Load() != 1 {
		t.Fatalf("queue depth = %d, want 1", q.depth.Load())
	}

	// ...and the next caller is shed, deterministically and immediately.
	if err := q.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated Acquire = %v, want ErrSaturated", err)
	}

	// Releasing the slot serves the queued waiter.
	p.Release()
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
		p.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never got the slot")
	}
}

func TestQueueFastPathSkipsDepth(t *testing.T) {
	q := NewQueue(New(2), 1)
	// Two immediate acquisitions on an empty pool never touch the queue.
	for i := 0; i < 2; i++ {
		if err := q.Acquire(context.Background()); err != nil {
			t.Fatalf("fast-path Acquire %d: %v", i, err)
		}
	}
	if q.depth.Load() != 0 {
		t.Fatalf("fast path counted into queue depth: %d", q.depth.Load())
	}
	q.Pool().Release()
	q.Pool().Release()
}

func TestQueueConcurrentChurn(t *testing.T) {
	p := New(2)
	q := NewQueue(p, 4)
	var wg sync.WaitGroup
	var served, shed sync.Map
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := q.Acquire(context.Background())
			switch {
			case err == nil:
				time.Sleep(time.Millisecond)
				p.Release()
				served.Store(i, true)
			case errors.Is(err, ErrSaturated):
				shed.Store(i, true)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if q.depth.Load() != 0 {
		t.Fatalf("queue depth not drained: %d", q.depth.Load())
	}
	n := 0
	served.Range(func(_, _ any) bool { n++; return true })
	if n == 0 {
		t.Fatal("no caller was ever served")
	}
}

// TestMapRunsEveryIndexOnce: whatever the size, worker count and batch,
// every index runs exactly once — including sizes that leave a partial
// last batch and sizes below one batch.
func TestMapRunsEveryIndexOnce(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{1, 8} {
				runs := make([]atomic.Int32, n)
				p.Map(n, workers, batch, func(i int) bool {
					runs[i].Add(1)
					return true
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("n=%d workers=%d batch=%d: index %d ran %d times", n, workers, batch, i, got)
					}
				}
			}
		}
	}
}

// TestMapStopsClaimingAfterFalse: once fn returns false, no new claim
// starts. On one worker that is exact: nothing after the stopping
// index runs. On four, the other workers are held inside their first
// claim until the stop, so each may finish that claim and, at worst,
// one claim it took before the cursor moved past the end, never more.
func TestMapStopsClaimingAfterFalse(t *testing.T) {
	for _, batch := range []int{1, 8} {
		var ran []int
		New(1).Map(100, 1, batch, func(i int) bool {
			ran = append(ran, i)
			return i != 20
		})
		if len(ran) != 21 || ran[20] != 20 {
			t.Errorf("batch=%d: serial run after stop at 20 ran %v", batch, ran)
		}
	}
	const n, workers = 1000, 4
	for _, batch := range []int{1, 8} {
		runs := make([]atomic.Int32, n)
		var calls atomic.Int32
		stopped := make(chan struct{})
		New(workers).Map(n, workers, batch, func(i int) bool {
			calls.Add(1)
			runs[i].Add(1)
			if i == 0 {
				close(stopped)
				return false
			}
			<-stopped
			return true
		})
		for i := range runs {
			if runs[i].Load() > 1 {
				t.Errorf("batch=%d: index %d ran %d times", batch, i, runs[i].Load())
			}
		}
		if got, limit := int(calls.Load()), (2*workers-1)*batch; got > limit {
			t.Errorf("batch=%d: %d calls after stopping at index 0, want at most %d", batch, got, limit)
		}
	}
}

// TestMapCallerAloneWhenSlotsHeld: with every slot taken, a 4-worker
// Map finishes on its caller alone, one item at a time, and returns
// with no helper left waiting for a slot or holding one.
func TestMapCallerAloneWhenSlotsHeld(t *testing.T) {
	p := New(2)
	p.Acquire()
	p.Acquire()
	defer p.Release()
	defer p.Release()
	const n = 100
	runs := make([]atomic.Int32, n)
	var inFlight atomic.Int32
	var overlap atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Map(n, 4, 1, func(i int) bool {
			if inFlight.Add(1) > 1 {
				overlap.Store(true)
			}
			runs[i].Add(1)
			inFlight.Add(-1)
			return true
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return: a helper is still waiting for a slot")
	}
	if overlap.Load() {
		t.Error("items ran concurrently, want the caller alone")
	}
	for i := range runs {
		if runs[i].Load() != 1 {
			t.Errorf("index %d ran %d times", i, runs[i].Load())
		}
	}
	if held := len(p.c); held != 2 {
		t.Errorf("%d slots held after Map, want the test's 2", held)
	}
}
