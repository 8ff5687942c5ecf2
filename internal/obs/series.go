package obs

import (
	"sync"
)

// Sample is one snapshot of the registry captured into a Series, tagged
// with a monotone index. Indices start at 1 and never repeat, so a
// streaming consumer (the SSE endpoint) can resume from any point: the
// index doubles as the SSE event id, and Since(lastSeen) is exactly the
// replay the Last-Event-ID header asks for.
type Sample struct {
	Index   int64    `json:"index"`
	Metrics []Metric `json:"metrics"`
}

// Series is a fixed-capacity ring of metric snapshots — the sampled
// time-series layer behind hswsimd's /v1/stream. Writers append whole
// snapshots (already name-sorted by Registry.Snapshot); the ring keeps
// the most recent cap samples and drops the oldest on wraparound.
// Index assignment happens under the same lock as the append, so even
// with concurrent writers every sample gets a unique, strictly
// increasing index and the ring order equals the index order — readers
// never observe a gap except by eviction, which Dropped counts.
type Series struct {
	mu    sync.Mutex
	buf   []Sample      // ring storage, len == cap once full
	head  int           // next write position
	count int           // number of valid samples (≤ cap(buf))
	next  int64         // next index to assign (starts at 1)
	drops int64         // samples evicted by wraparound
	wake  chan struct{} // closed and replaced on every Add (broadcast)
}

// NewSeries returns a ring holding at most capacity samples.
// capacity < 1 is rounded up to 1.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{
		buf:  make([]Sample, capacity),
		next: 1,
		wake: make(chan struct{}),
	}
}

// Add appends a snapshot and returns its assigned index. The caller
// hands over ms; it must not mutate it afterwards.
func (s *Series) Add(ms []Metric) int64 {
	s.mu.Lock()
	idx := s.next
	s.next++
	if s.count == len(s.buf) {
		s.drops++
	} else {
		s.count++
	}
	s.buf[s.head] = Sample{Index: idx, Metrics: ms}
	s.head = (s.head + 1) % len(s.buf)
	wake := s.wake
	s.wake = make(chan struct{})
	s.mu.Unlock()
	close(wake)
	return idx
}

// Since returns all retained samples with Index > after, oldest first.
// after = 0 replays everything still in the ring.
func (s *Series) Since(after int64) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.count)
	start := s.head - s.count
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.count; i++ {
		sm := s.buf[(start+i)%len(s.buf)]
		if sm.Index > after {
			out = append(out, sm)
		}
	}
	return out
}

// Latest returns the most recent sample; ok is false if the ring is
// empty.
func (s *Series) Latest() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return Sample{}, false
	}
	i := s.head - 1
	if i < 0 {
		i += len(s.buf)
	}
	return s.buf[i], true
}

// Len returns the number of samples currently retained.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Dropped returns the number of samples evicted by wraparound.
func (s *Series) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Wait returns a channel that is closed when a sample newer than the
// current tail arrives. Streaming consumers loop: drain Since(last),
// then block on Wait (racing an Add between the two is fine — the
// channel returned here was swapped by that Add and is already closed).
func (s *Series) Wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wake
}
