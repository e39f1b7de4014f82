package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// nearest-rank interpolation. It returns 0 for an empty slice. The input is
// not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over an already-sorted non-empty sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// DistStats summarizes one sample of a scalar quantity. The JSON field names
// are part of the BENCH_*.json schema emitted by cmd/flowtune-bench.
type DistStats struct {
	// Count is the sample size.
	Count int `json:"count"`
	// Mean is the arithmetic mean (0 for an empty sample).
	Mean float64 `json:"mean"`
	// P50 and P99 are the 50th and 99th percentiles.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// Max is the largest observation.
	Max float64 `json:"max"`
}

// Summarize computes DistStats over a sample. The input is not modified.
func Summarize(values []float64) DistStats {
	s := DistStats{Count: len(values), Mean: Mean(values)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.P50 = percentileSorted(sorted, 50)
	s.P99 = percentileSorted(sorted, 99)
	s.Max = sorted[len(sorted)-1]
	return s
}

// FlowRecord is the outcome of one flow (flowlet) in a simulation.
type FlowRecord struct {
	// ID is the flow identifier.
	ID int64
	// SizeBytes is the flow's payload size.
	SizeBytes int64
	// Start is the time the flow became available at the sender.
	Start float64
	// End is the time the last payload byte arrived at the receiver; zero
	// if the flow did not finish before the simulation horizon.
	End float64
	// IdealDuration is the time the flow would take on an empty network
	// (serialization at the bottleneck rate plus base RTT), used to
	// normalize completion times as in Figure 8.
	IdealDuration float64
}

// Finished reports whether the flow completed.
func (r FlowRecord) Finished() bool { return r.End > r.Start }

// FCT returns the flow completion time in seconds (0 if unfinished).
func (r FlowRecord) FCT() float64 {
	if !r.Finished() {
		return 0
	}
	return r.End - r.Start
}

// NormalizedFCT returns the completion time divided by the ideal duration.
func (r FlowRecord) NormalizedFCT() float64 {
	if !r.Finished() || r.IdealDuration <= 0 {
		return 0
	}
	return r.FCT() / r.IdealDuration
}

// FCTSummary summarizes normalized flow completion times for one flow-size
// bucket.
type FCTSummary struct {
	Bucket   string
	Count    int
	Mean     float64
	P50, P99 float64
}

// SummarizeFCT groups finished flows into the given buckets (keyed by the
// bucket function) and returns normalized-FCT summaries per bucket, in the
// order of bucketOrder.
func SummarizeFCT(records []FlowRecord, bucketOf func(sizeBytes int64) string, bucketOrder []string) []FCTSummary {
	grouped := make(map[string][]float64)
	for _, r := range records {
		if !r.Finished() {
			continue
		}
		b := bucketOf(r.SizeBytes)
		grouped[b] = append(grouped[b], r.NormalizedFCT())
	}
	var out []FCTSummary
	for _, b := range bucketOrder {
		vals := grouped[b]
		if len(vals) == 0 {
			continue
		}
		out = append(out, FCTSummary{
			Bucket: b,
			Count:  len(vals),
			Mean:   Mean(vals),
			P50:    Percentile(vals, 50),
			P99:    Percentile(vals, 99),
		})
	}
	return out
}

// P99ByBucket returns a map from bucket label to the p99 normalized FCT.
func P99ByBucket(records []FlowRecord, bucketOf func(sizeBytes int64) string) map[string]float64 {
	grouped := make(map[string][]float64)
	for _, r := range records {
		if !r.Finished() {
			continue
		}
		grouped[bucketOf(r.SizeBytes)] = append(grouped[bucketOf(r.SizeBytes)], r.NormalizedFCT())
	}
	out := make(map[string]float64, len(grouped))
	for b, vals := range grouped {
		out[b] = Percentile(vals, 99)
	}
	return out
}

// CompletionRate returns the fraction of flows that finished.
func CompletionRate(records []FlowRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	done := 0
	for _, r := range records {
		if r.Finished() {
			done++
		}
	}
	return float64(done) / float64(len(records))
}

// FairnessScore returns the proportional-fairness score Σ log2(rate) used in
// Figure 11. Rates of zero or below contribute the configured floor (the
// paper's comparison penalizes starved flows heavily; we use log2(floor)).
func FairnessScore(rates []float64, floor float64) float64 {
	if floor <= 0 {
		floor = 1
	}
	score := 0.0
	for _, r := range rates {
		if r < floor {
			r = floor
		}
		score += math.Log2(r)
	}
	return score
}

// MeanPerFlowFairness returns the fairness score divided by the number of
// flows, which is what Figure 11 plots (relative to Flowtune's value).
func MeanPerFlowFairness(rates []float64, floor float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	return FairnessScore(rates, floor) / float64(len(rates))
}

// ThroughputSeries builds a per-interval throughput time series (bits/s) from
// (time, bytes) deliveries, as used for the Figure 4 convergence plots, which
// compute throughput over 100 µs intervals.
type ThroughputSeries struct {
	Interval float64
	start    float64
	buckets  []float64
}

// NewThroughputSeries creates a series with the given bucket width in
// seconds, starting at time start.
func NewThroughputSeries(interval, start float64) *ThroughputSeries {
	if interval <= 0 {
		interval = 100e-6
	}
	return &ThroughputSeries{Interval: interval, start: start}
}

// Add records bytes delivered at the given time.
func (t *ThroughputSeries) Add(at float64, bytes int) {
	if at < t.start {
		return
	}
	idx := int((at - t.start) / t.Interval)
	for len(t.buckets) <= idx {
		t.buckets = append(t.buckets, 0)
	}
	t.buckets[idx] += float64(bytes)
}

// Rates returns the throughput in bits/s for every interval.
func (t *ThroughputSeries) Rates() []float64 {
	out := make([]float64, len(t.buckets))
	for i, b := range t.buckets {
		out[i] = b * 8 / t.Interval
	}
	return out
}

// FormatRate renders a bits/s value as a human-readable string (Gbit/s or
// Mbit/s) for reports.
func FormatRate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f Kbit/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", bps)
	}
}
