package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := Percentile(vals, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := Percentile(vals, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	// Input must not be modified.
	if vals[0] != 5 {
		t.Error("Percentile modified its input")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	vals := []float64{0, 10}
	if got := Percentile(vals, 25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("p25 = %g, want 2.5", got)
	}
}

// TestPercentileProperty: percentile is monotone in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(n%50)+1)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(vals, p)
			if v < prev-1e-9 || v < sorted[0]-1e-9 || v > sorted[len(sorted)-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if got := Summarize(nil); got != (DistStats{}) {
		t.Errorf("Summarize(nil) = %+v; want zero value", got)
	}
	// A single sample collapses every statistic onto the sample.
	got := Summarize([]float64{2.5})
	want := DistStats{Count: 1, Mean: 2.5, P50: 2.5, P99: 2.5, Max: 2.5}
	if got != want {
		t.Errorf("Summarize single = %+v; want %+v", got, want)
	}
}

// TestSummarizeMonotonicity: on any sample, P50 <= P99 <= Max and the mean is
// bounded by the extremes.
func TestSummarizeMonotonicity(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(n%64)+1)
		for i := range vals {
			vals[i] = rng.ExpFloat64()
		}
		s := Summarize(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		const eps = 1e-9
		return s.Count == len(vals) &&
			s.P50 <= s.P99+eps && s.P99 <= s.Max+eps &&
			s.Mean >= lo-eps && s.Mean <= hi+eps &&
			s.Max == hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFlowRecord(t *testing.T) {
	r := FlowRecord{SizeBytes: 1500, Start: 1, End: 1.001, IdealDuration: 0.0005}
	if !r.Finished() {
		t.Error("record should be finished")
	}
	if math.Abs(r.FCT()-0.001) > 1e-12 {
		t.Errorf("FCT = %g, want 0.001", r.FCT())
	}
	if math.Abs(r.NormalizedFCT()-2) > 1e-9 {
		t.Errorf("NormalizedFCT = %g, want 2", r.NormalizedFCT())
	}
	unfinished := FlowRecord{Start: 1}
	if unfinished.Finished() || unfinished.FCT() != 0 || unfinished.NormalizedFCT() != 0 {
		t.Error("unfinished record misreported")
	}
}

func TestSummarizeFCTAndP99(t *testing.T) {
	bucketOf := func(size int64) string {
		if size <= 10 {
			return "small"
		}
		return "big"
	}
	var records []FlowRecord
	for i := 0; i < 100; i++ {
		records = append(records, FlowRecord{
			SizeBytes: 5, Start: 0, End: float64(i + 1), IdealDuration: 1,
		})
	}
	records = append(records, FlowRecord{SizeBytes: 50, Start: 0, End: 2, IdealDuration: 1})
	records = append(records, FlowRecord{SizeBytes: 50, Start: 5, End: 0}) // unfinished
	sums := SummarizeFCT(records, bucketOf, []string{"small", "big"})
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Bucket != "small" || sums[0].Count != 100 {
		t.Errorf("small bucket: %+v", sums[0])
	}
	if sums[1].Count != 1 {
		t.Errorf("big bucket should only count the finished flow: %+v", sums[1])
	}
	p99 := P99ByBucket(records, bucketOf)
	if p99["small"] < 90 {
		t.Errorf("p99 of small bucket = %g, want >= 90", p99["small"])
	}
	if got := CompletionRate(records); math.Abs(got-101.0/102) > 1e-9 {
		t.Errorf("CompletionRate = %g", got)
	}
}

func TestFairnessScore(t *testing.T) {
	// Two flows at rate 4: score = 2*log2(4) = 4.
	if got := FairnessScore([]float64{4, 4}, 1); got != 4 {
		t.Errorf("FairnessScore = %g, want 4", got)
	}
	// A starved flow is clamped to the floor.
	withStarved := FairnessScore([]float64{4, 0}, 1)
	if withStarved != 2 {
		t.Errorf("FairnessScore with starved flow = %g, want 2", withStarved)
	}
	if got := MeanPerFlowFairness([]float64{4, 4}, 1); got != 2 {
		t.Errorf("MeanPerFlowFairness = %g, want 2", got)
	}
	if got := MeanPerFlowFairness(nil, 1); got != 0 {
		t.Errorf("MeanPerFlowFairness(nil) = %g, want 0", got)
	}
}

func TestFairnessPrefersEqualAllocation(t *testing.T) {
	equal := FairnessScore([]float64{5, 5}, 1)
	unequal := FairnessScore([]float64{9, 1}, 1)
	if equal <= unequal {
		t.Errorf("equal allocation (%g) should score higher than unequal (%g)", equal, unequal)
	}
}

func TestThroughputSeries(t *testing.T) {
	ts := NewThroughputSeries(1e-3, 0)
	ts.Add(0.5e-3, 125)  // 125 bytes in bucket 0
	ts.Add(0.9e-3, 125)  // another 125 bytes in bucket 0
	ts.Add(2.5e-3, 1250) // bucket 2
	rates := ts.Rates()
	if len(rates) != 3 {
		t.Fatalf("got %d buckets, want 3", len(rates))
	}
	if math.Abs(rates[0]-2e6) > 1e-6 {
		t.Errorf("bucket 0 rate = %g, want 2e6", rates[0])
	}
	if rates[1] != 0 {
		t.Errorf("bucket 1 rate = %g, want 0", rates[1])
	}
	if math.Abs(rates[2]-1e7) > 1e-6 {
		t.Errorf("bucket 2 rate = %g, want 1e7", rates[2])
	}
	if got := ts.RateAt(2.1e-3); math.Abs(got-1e7) > 1e-6 {
		t.Errorf("RateAt = %g, want 1e7", got)
	}
	if got := ts.RateAt(10); got != 0 {
		t.Errorf("RateAt beyond series = %g, want 0", got)
	}
}

func TestThroughputSeriesIgnoresBeforeStart(t *testing.T) {
	ts := NewThroughputSeries(1e-3, 1.0)
	ts.Add(0.5, 1000)
	if len(ts.Rates()) != 0 {
		t.Error("deliveries before the start time should be ignored")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal rates Jain = %g, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single-flow Jain = %g, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("Jain(nil) = %g, want 0", got)
	}
}

func TestFormatRate(t *testing.T) {
	cases := []struct {
		bps  float64
		want string
	}{
		{2.5e9, "2.50 Gbit/s"},
		{3e6, "3.00 Mbit/s"},
		{1.5e3, "1.50 Kbit/s"},
		{500, "500 bit/s"},
	}
	for _, tc := range cases {
		if got := FormatRate(tc.bps); got != tc.want {
			t.Errorf("FormatRate(%g) = %q, want %q", tc.bps, got, tc.want)
		}
	}
}

// RateAt returns the throughput of the interval containing time at.
func (t *ThroughputSeries) RateAt(at float64) float64 {
	idx := int((at - t.start) / t.Interval)
	if idx < 0 || idx >= len(t.buckets) {
		return 0
	}
	return t.buckets[idx] * 8 / t.Interval
}

// JainIndex returns Jain's fairness index of the given rates: 1 when all
// rates are equal, 1/n when one flow gets everything.
func JainIndex(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, r := range rates {
		sum += r
		sumSq += r * r
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(rates)) * sumSq)
}
