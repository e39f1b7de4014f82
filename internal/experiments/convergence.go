package experiments

import (
	"fmt"
	"strings"

	"repro/internal/transport"
	"repro/internal/workload"
)

// ConvergenceConfig configures the Figure 4 convergence experiment: senders
// share a single receiver; every StepInterval a new flow starts until
// NumFlows are active, and then every StepInterval one flow stops.
type ConvergenceConfig struct {
	// Scheme is the congestion-control scheme to run.
	Scheme transport.Scheme
	// NumFlows is the number of senders (5 in the paper).
	NumFlows int
	// StepInterval is the time between flow arrivals/departures (10 ms).
	// Throughput is measured in transport.ThroughputBucket (100 µs) buckets.
	StepInterval float64
}

// DefaultConvergenceConfig returns the paper's Figure 4 parameters.
func DefaultConvergenceConfig(s transport.Scheme) ConvergenceConfig {
	return ConvergenceConfig{
		Scheme:       s,
		NumFlows:     5,
		StepInterval: 10e-3,
	}
}

// ConvergenceResult holds the per-flow throughput series of one scheme.
type ConvergenceResult struct {
	Scheme transport.Scheme
	// Interval is the throughput bucket width in seconds.
	Interval float64
	// Series[i] is flow i's receiver throughput in bits/s per interval.
	Series [][]float64
	// FairShareError[k] is, for measurement interval k, the mean relative
	// deviation of active flows' throughputs from the ideal 1/N share.
	FairShareError []float64
	// ConvergenceTime is the time after the last churn event until all
	// active flows stay within 10% of the fair share (0 if never reached).
	ConvergenceTime float64
}

// RunConvergence runs the Figure 4 scenario for one scheme.
func RunConvergence(cfg ConvergenceConfig) (*ConvergenceResult, error) {
	if cfg.NumFlows == 0 {
		cfg.NumFlows = 5
	}
	if cfg.StepInterval == 0 {
		cfg.StepInterval = 10e-3
	}
	horizon := cfg.StepInterval * float64(2*cfg.NumFlows)
	eng, err := transport.NewEngine(transport.EngineConfig{
		Scheme:          cfg.Scheme,
		TrackThroughput: true,
		Horizon:         horizon,
	})
	if err != nil {
		return nil, err
	}
	topo := eng.Topology()
	receiver := 0
	// Senders live in distinct racks so only the receiver's downlink is
	// shared, as in the paper's single-bottleneck scenario.
	perRack := topo.Config().ServersPerRack
	const bigFlow = 1 << 40 // effectively infinite; senders are stopped explicitly
	for i := 0; i < cfg.NumFlows; i++ {
		sender := (i+1)*perRack + (i % perRack)
		f := workload.Flowlet{
			ID:        int64(i),
			Arrival:   float64(i) * cfg.StepInterval,
			Src:       sender,
			Dst:       receiver,
			SizeBytes: bigFlow,
		}
		if err := eng.AddFlowlet(f); err != nil {
			return nil, err
		}
	}
	// Schedule the departures: after all flows are active, one stops every
	// StepInterval, in arrival order.
	for i := 0; i < cfg.NumFlows; i++ {
		id := int64(i)
		at := float64(cfg.NumFlows+i) * cfg.StepInterval
		eng.Sim().At(at, func() { eng.StopFlow(id) })
	}
	eng.Run(horizon)

	res := &ConvergenceResult{Scheme: cfg.Scheme, Interval: transport.ThroughputBucket}
	for i := 0; i < cfg.NumFlows; i++ {
		ts := eng.FlowThroughput(int64(i))
		if ts == nil {
			res.Series = append(res.Series, nil)
			continue
		}
		res.Series = append(res.Series, ts.Rates())
	}
	res.computeFairness(cfg, topo.Config().LinkCapacity, horizon)
	return res, nil
}

// activeFlowsAt returns which flows are active at time t under the scenario's
// schedule.
func activeFlowsAt(cfg ConvergenceConfig, t float64) []int {
	var active []int
	for i := 0; i < cfg.NumFlows; i++ {
		start := float64(i) * cfg.StepInterval
		stop := float64(cfg.NumFlows+i) * cfg.StepInterval
		if t >= start && t < stop {
			active = append(active, i)
		}
	}
	return active
}

// computeFairness fills FairShareError and ConvergenceTime.
func (r *ConvergenceResult) computeFairness(cfg ConvergenceConfig, linkRate, horizon float64) {
	numIntervals := int(horizon / r.Interval)
	r.FairShareError = make([]float64, numIntervals)
	for k := 0; k < numIntervals; k++ {
		t := (float64(k) + 0.5) * r.Interval
		active := activeFlowsAt(cfg, t)
		if len(active) == 0 {
			continue
		}
		fair := linkRate / float64(len(active))
		sumErr := 0.0
		for _, i := range active {
			rate := 0.0
			if k < len(r.Series[i]) {
				rate = r.Series[i][k]
			}
			diff := rate - fair
			if diff < 0 {
				diff = -diff
			}
			sumErr += diff / fair
		}
		r.FairShareError[k] = sumErr / float64(len(active))
	}
	// Convergence time after the last arrival (the point of maximum churn):
	// first interval after which the error stays below 10% for 1 ms.
	lastArrival := float64(cfg.NumFlows-1) * cfg.StepInterval
	startIdx := int(lastArrival / r.Interval)
	window := int(1e-3 / r.Interval)
	for k := startIdx; k+window < len(r.FairShareError) && float64(k)*r.Interval < lastArrival+cfg.StepInterval; k++ {
		ok := true
		for j := k; j < k+window; j++ {
			if r.FairShareError[j] > 0.10 {
				ok = false
				break
			}
		}
		if ok {
			r.ConvergenceTime = float64(k)*r.Interval - lastArrival
			if r.ConvergenceTime <= 0 {
				// Converged within the very first measurement interval;
				// the series cannot resolve anything faster than one
				// bucket, and zero is reserved for "did not converge".
				r.ConvergenceTime = r.Interval
			}
			return
		}
	}
}

// Render prints a compact summary: the mean rate of each flow during the
// interval in which all flows are active, plus the convergence time.
func (r *ConvergenceResult) Render(cfg ConvergenceConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s convergence (Figure 4 scenario)\n", r.Scheme)
	allActiveStart := float64(cfg.NumFlows-1) * cfg.StepInterval
	allActiveEnd := float64(cfg.NumFlows) * cfg.StepInterval
	k0 := int(allActiveStart / r.Interval)
	k1 := int(allActiveEnd / r.Interval)
	for i, series := range r.Series {
		sum, n := 0.0, 0
		for k := k0; k < k1 && k < len(series); k++ {
			sum += series[k]
			n++
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		fmt.Fprintf(&b, "  flow %d mean throughput while all active: %.2f Gbit/s\n", i, mean/1e9)
	}
	if r.ConvergenceTime > 0 {
		fmt.Fprintf(&b, "  converged to within 10%% of fair share %.0f µs after the last arrival\n", r.ConvergenceTime*1e6)
	} else {
		fmt.Fprintf(&b, "  did not converge to within 10%% of fair share before the next churn event\n")
	}
	return b.String()
}
