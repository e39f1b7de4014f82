package sim

import (
	"container/heap"
	"math"
)

// Time is simulation time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64 // tie-breaker for deterministic ordering
	call func()
}

// eventHeap is a min-heap of events ordered by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator owns the event queue and the simulation clock.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	// processed counts executed events, for sanity limits in tests.
	processed uint64
}

// New creates an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Schedule runs fn after delay seconds of simulated time. Negative delays are
// clamped to zero (the event runs at the current time, after already-pending
// events at that time).
func (s *Simulator) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + delay, seq: s.seq, call: fn})
}

// At runs fn at the absolute simulation time t (clamped to the present).
func (s *Simulator) At(t Time, fn func()) {
	s.Schedule(t-s.now, fn)
}

// Run executes events until the queue is empty or the clock passes until.
func (s *Simulator) Run(until Time) {
	for len(s.events) > 0 {
		next := s.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.events)
		if next.at > s.now {
			s.now = next.at
		}
		s.processed++
		next.call()
	}
	if s.now < until {
		s.now = until
	}
}
