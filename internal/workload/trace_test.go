package workload

import (
	"math"
	"testing"
)

func poissonCfg(pattern PatternKind, seed int64) TraceConfig {
	return TraceConfig{
		Pattern:            pattern,
		Kind:               Web,
		NumServers:         32,
		ServerLinkCapacity: 10e9,
		Load:               0.5,
		Seed:               seed,
	}
}

func mustTrace(t *testing.T, cfg TraceConfig) *Trace {
	t.Helper()
	tr, err := NewTrace(cfg)
	if err != nil {
		t.Fatalf("NewTrace: %v", err)
	}
	return tr
}

// ArrivalRate returns the aggregate open-loop flowlet arrival rate in
// flowlets per second (0 for closed-loop traces, whose rate is emergent).
func (t *Trace) ArrivalRate() float64 {
	fanIn := 1.0
	if t.cfg.Pattern == PatternIncast {
		fanIn = float64(t.cfg.IncastFanIn)
	}
	return t.burstRate * fanIn
}

func TestTraceSeedDeterminism(t *testing.T) {
	for _, pattern := range []PatternKind{PatternUniform, PatternPermutation, PatternIncast, PatternShuffle} {
		a := mustTrace(t, poissonCfg(pattern, 42))
		b := mustTrace(t, poissonCfg(pattern, 42))
		for i := 0; i < 1000; i++ {
			fa, _ := a.Next()
			fb, _ := b.Next()
			if fa != fb {
				t.Fatalf("%s: flow %d differs with identical seeds: %+v vs %+v", pattern, i, fa, fb)
			}
		}
		c := mustTrace(t, poissonCfg(pattern, 43))
		same := true
		for i := 0; i < 100; i++ {
			fa, _ := mustTrace(t, poissonCfg(pattern, 42)).Next()
			fc, _ := c.Next()
			if fa != fc {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical streams", pattern)
		}
	}
}

// TestPoissonInterArrivals checks that open-loop inter-arrival times are
// exponential with the configured rate: the sample mean matches 1/rate and
// the coefficient of variation is ~1.
func TestPoissonInterArrivals(t *testing.T) {
	tr := mustTrace(t, poissonCfg(PatternUniform, 7))
	rate := tr.ArrivalRate()
	if rate <= 0 {
		t.Fatalf("ArrivalRate = %g, want positive", rate)
	}
	const n = 50000
	gaps := make([]float64, 0, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		f, _ := tr.Next()
		gaps = append(gaps, f.Arrival-prev)
		prev = f.Arrival
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / n
	want := 1 / rate
	if mean < 0.97*want || mean > 1.03*want {
		t.Errorf("mean inter-arrival %g, want %g +-3%%", mean, want)
	}
	var ss float64
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(ss/n) / mean
	if cv < 0.95 || cv > 1.05 {
		t.Errorf("inter-arrival CV %g, want ~1 (exponential)", cv)
	}
}

// TestPoissonOfferedLoad checks the arrival rate delivers the configured load
// in expectation: rate × mean size ≈ Load × aggregate capacity.
func TestPoissonOfferedLoad(t *testing.T) {
	cfg := poissonCfg(PatternUniform, 1)
	tr := mustTrace(t, cfg)
	byteRate := tr.ArrivalRate() * tr.Config().Dist.Mean()
	want := cfg.Load * cfg.ServerLinkCapacity * float64(cfg.NumServers) / 8
	if math.Abs(byteRate-want)/want > 1e-9 {
		t.Errorf("offered byte rate %g, want %g", byteRate, want)
	}
}

func TestPermutationPattern(t *testing.T) {
	tr := mustTrace(t, poissonCfg(PatternPermutation, 3))
	n := tr.Config().NumServers
	dstOf := make(map[int]int)
	for i := 0; i < 5000; i++ {
		f, _ := tr.Next()
		if f.Src == f.Dst {
			t.Fatal("permutation produced a self-flow")
		}
		if prev, seen := dstOf[f.Src]; seen && prev != f.Dst {
			t.Fatalf("server %d sent to both %d and %d", f.Src, prev, f.Dst)
		}
		dstOf[f.Src] = f.Dst
	}
	// Every destination is distinct (the map is injective).
	seen := make(map[int]bool)
	for _, d := range dstOf {
		if seen[d] {
			t.Fatalf("two servers map to destination %d", d)
		}
		seen[d] = true
	}
	if len(dstOf) != n {
		t.Errorf("only %d of %d servers appeared as sources", len(dstOf), n)
	}
}

func TestIncastBursts(t *testing.T) {
	cfg := poissonCfg(PatternIncast, 5)
	cfg.IncastFanIn = 8
	tr := mustTrace(t, cfg)
	for burst := 0; burst < 200; burst++ {
		srcs := make(map[int]bool)
		var at float64
		var dst int
		for i := 0; i < cfg.IncastFanIn; i++ {
			f, _ := tr.Next()
			if i == 0 {
				at, dst = f.Arrival, f.Dst
			}
			if f.Arrival != at {
				t.Fatalf("burst %d: flow %d arrives at %g, want %g", burst, i, f.Arrival, at)
			}
			if f.Dst != dst {
				t.Fatalf("burst %d: mixed destinations %d and %d", burst, f.Dst, dst)
			}
			if f.Src == dst {
				t.Fatalf("burst %d: source equals victim %d", burst, dst)
			}
			if srcs[f.Src] {
				t.Fatalf("burst %d: duplicate source %d", burst, f.Src)
			}
			srcs[f.Src] = true
		}
	}
}

func TestIncastVictimRotation(t *testing.T) {
	cfg := poissonCfg(PatternIncast, 5)
	cfg.IncastFanIn = 4
	tr := mustTrace(t, cfg)
	victims := make(map[int]bool)
	for burst := 0; burst < 2*cfg.NumServers; burst++ {
		for i := 0; i < cfg.IncastFanIn; i++ {
			f, _ := tr.Next()
			victims[f.Dst] = true
		}
	}
	if len(victims) != cfg.NumServers {
		t.Fatalf("default incast hit %d distinct victims over %d bursts, want %d",
			len(victims), 2*cfg.NumServers, cfg.NumServers)
	}

	cfg.IncastTarget = 7
	tr = mustTrace(t, cfg)
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < cfg.IncastFanIn; i++ {
			f, _ := tr.Next()
			if f.Dst != 7 {
				t.Fatalf("pinned incast sent burst %d to server %d, want 7", burst, f.Dst)
			}
		}
	}
}

func TestShufflePairCoverage(t *testing.T) {
	cfg := poissonCfg(PatternShuffle, 9)
	cfg.NumServers = 8
	tr := mustTrace(t, cfg)
	n := cfg.NumServers
	counts := make(map[[2]int]int)
	total := n * (n - 1) * 3
	for i := 0; i < total; i++ {
		f, _ := tr.Next()
		if f.Src == f.Dst {
			t.Fatal("shuffle produced a self-flow")
		}
		counts[[2]int{f.Src, f.Dst}]++
	}
	if len(counts) != n*(n-1) {
		t.Fatalf("covered %d pairs, want %d", len(counts), n*(n-1))
	}
	for pair, c := range counts {
		if c != 3 {
			t.Errorf("pair %v saw %d flows, want exactly 3", pair, c)
		}
	}
}

func TestClosedLoopConcurrency(t *testing.T) {
	tr := mustTrace(t, TraceConfig{
		Pattern:     PatternUniform,
		Arrival:     ArrivalClosedLoop,
		Kind:        Cache,
		NumServers:  4,
		Concurrency: 2,
		ThinkTime:   10e-6,
		Seed:        11,
	})
	// Exactly NumServers × Concurrency initial arrivals, then the trace
	// stalls until completions are reported.
	var initial []Flowlet
	for {
		f, ok := tr.Next()
		if !ok {
			break
		}
		initial = append(initial, f)
	}
	if len(initial) != 8 {
		t.Fatalf("got %d initial arrivals, want 8", len(initial))
	}
	perSrc := make(map[int]int)
	for _, f := range initial {
		perSrc[f.Src]++
	}
	for s, c := range perSrc {
		if c != 2 {
			t.Errorf("server %d has %d outstanding, want 2", s, c)
		}
	}
	tr.Complete(initial[3].ID, 1e-3)
	f, ok := tr.Next()
	if !ok {
		t.Fatal("no arrival after completion")
	}
	if f.Src != initial[3].Src {
		t.Errorf("follow-up flow from server %d, want %d (same worker)", f.Src, initial[3].Src)
	}
	if got, want := f.Arrival, 1e-3+10e-6; got != want {
		t.Errorf("follow-up arrival %g, want %g (completion + think time)", got, want)
	}
	if _, ok := tr.Next(); ok {
		t.Error("trace emitted an arrival with no pending completion")
	}
}

func TestChurnEvents(t *testing.T) {
	tr := mustTrace(t, poissonCfg(PatternUniform, 13))
	flows := tr.GenerateUntil(2e-3)
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	events := ChurnEvents(flows, IdealHold(10e9, 2))
	if len(events) != 2*len(flows) {
		t.Fatalf("got %d events, want %d", len(events), 2*len(flows))
	}
	active := make(map[int64]bool)
	prev := math.Inf(-1)
	for _, ev := range events {
		if ev.At < prev {
			t.Fatal("events out of order")
		}
		prev = ev.At
		switch ev.Kind {
		case FlowletAdd:
			active[ev.Flow.ID] = true
		case FlowletRemove:
			if !active[ev.Flow.ID] {
				t.Fatalf("flow %d removed before being added", ev.Flow.ID)
			}
			delete(active, ev.Flow.ID)
		}
	}
	if len(active) != 0 {
		t.Errorf("%d flows never removed", len(active))
	}
}
