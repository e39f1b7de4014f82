package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSimulatorOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3e-6, func() { order = append(order, 3) })
	s.Schedule(1e-6, func() { order = append(order, 1) })
	s.Schedule(2e-6, func() { order = append(order, 2) })
	s.Run(1)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events out of order: %v", order)
	}
	if s.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", s.Processed())
	}
}

func TestSimulatorTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1e-6, func() { order = append(order, i) })
	}
	s.Run(1)
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events not FIFO: %v", order)
	}
}

func TestSimulatorRunHorizon(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(1e-3, func() { ran++ })
	s.Schedule(2e-3, func() { ran++ })
	s.Run(1.5e-3)
	if ran != 1 {
		t.Errorf("ran %d events before horizon, want 1", ran)
	}
	if s.Now() != 1.5e-3 {
		t.Errorf("Now = %g, want 1.5e-3", s.Now())
	}
	if len(s.events) != 1 {
		t.Errorf("%d events pending, want 1", len(s.events))
	}
	s.Run(1)
	if ran != 2 {
		t.Errorf("remaining event did not run")
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.Schedule(1e-6, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run(1)
	if count != 10 {
		t.Errorf("nested scheduling ran %d times, want 10", count)
	}
}

func TestSimulatorNegativeDelayClamped(t *testing.T) {
	s := New()
	var innerAt Time
	s.Schedule(5e-6, func() {
		s.Schedule(-1, func() { innerAt = s.Now() })
	})
	s.Run(1)
	if innerAt != 5e-6 {
		t.Errorf("negative-delay event ran at %g, want 5e-6 (clamped to the present)", innerAt)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestAtAbsoluteTime(t *testing.T) {
	s := New()
	var at Time
	s.At(2e-3, func() { at = s.Now() })
	s.Run(1)
	if at != 2e-3 {
		t.Errorf("At callback ran at %g, want 2e-3", at)
	}
}

// TestEventTimeMonotonicProperty: with random delays, the simulator clock
// never goes backwards during execution.
func TestEventTimeMonotonicProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ok := true
		last := Time(0)
		for i := 0; i < int(n%40)+1; i++ {
			s.Schedule(rng.Float64()*1e-3, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				if rng.Float64() < 0.5 {
					s.Schedule(rng.Float64()*1e-4, func() {})
				}
			})
		}
		s.Run(1)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
