package experiments

import (
	"fmt"
	"net"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TopologyKind selects the fabric family a scenario runs on.
type TopologyKind int

const (
	// TopoLeafSpine is a two-tier Clos fabric (the paper's fabric).
	TopoLeafSpine TopologyKind = iota
	// TopoFatTree is a three-tier k-ary fat-tree.
	TopoFatTree
)

// String returns "leafspine" or "fattree".
func (t TopologyKind) String() string {
	if t == TopoFatTree {
		return "fattree"
	}
	return "leafspine"
}

// ScenarioConfig describes one trace-driven scenario run: a fabric, a
// workload trace (size distribution × arrival process × traffic pattern), and
// a congestion-control scheme driven through the packet simulator with the
// Flowtune allocator in the loop.
type ScenarioConfig struct {
	// Name labels the run in reports and output file names.
	Name string
	// Scheme is the congestion-control scheme (default Flowtune).
	Scheme transport.Scheme
	// Topology selects the fabric family.
	Topology TopologyKind
	// LeafSpine overrides the two-tier fabric (default: the paper's
	// 9 racks × 16 servers, 4 spines simulation fabric).
	LeafSpine *topology.Config
	// FatTreeK is the fat-tree radix when Topology is TopoFatTree
	// (default 4).
	FatTreeK int
	// Pattern, Arrival, Workload, Dist, Load, IncastFanIn, IncastTarget,
	// Concurrency and ThinkTime configure the workload trace; see
	// workload.TraceConfig.
	Pattern      workload.PatternKind
	Arrival      workload.ArrivalKind
	Workload     workload.Kind
	Dist         workload.SizeDist
	Load         float64
	IncastFanIn  int
	IncastTarget int
	Concurrency  int
	ThinkTime    float64
	// Warmup precedes measurement: flows arriving during warmup are
	// simulated but excluded from the statistics.
	Warmup float64
	// Duration is the measured window after warmup.
	Duration float64
	// Seed seeds the workload trace. Identical configurations and seeds
	// produce byte-identical results.
	Seed int64
	// Daemon runs the allocator as a flowtuned daemon behind the wire
	// protocol (over an in-memory pipe) instead of in process, exercising
	// the full trace → wire → daemon → rate-update → simulator stack.
	// Only meaningful with the Flowtune scheme. The run stays
	// deterministic: the simulator drives the daemon in step mode, and a
	// daemon-backed scenario produces the same rates as an in-process one.
	Daemon bool
	// Shards, when > 1, replaces the single daemon with a sharded cluster
	// of that many step-driven flowtuned daemons (internal/cluster): the
	// trace's flowlets are hashed to their owning shards by a
	// transport.ShardedClient and cross-shard paths converge through the
	// boundary-price exchange. Requires Daemon, and Shards must divide the
	// fabric's rack count. Runs stay deterministic: shards are stepped in
	// order and every exchange push is delivery-acknowledged.
	Shards int
	// Blocks is every daemon's rack-block count (0 means 1; more needs a
	// power of two dividing the fabric's rack count). Requires Daemon;
	// composes with Shards, so a scenario can model a cluster of multicore
	// shards. Determinism is unaffected — the parallel allocator's merge
	// tree is a fixed reduction order.
	Blocks int
	// Faults, when non-nil, applies a deterministic fault plan through the
	// injection layer (internal/faults): link events re-price the allocator
	// and degrade the fabric, kill/drain events exercise the survivable
	// control plane, traffic events are materialized as synthetic flowlets.
	// Requires the Flowtune scheme; kill events additionally require
	// Shards > 1, and run the cluster with peer takeover: the endpoint client
	// freezes the dead shard at last-known rates, the successor daemon adopts
	// the orphaned rack block from the replicated flow state, and the client
	// fails over onto it. Every transition happens at an iteration boundary,
	// so fault runs are byte-reproducible like every other scenario.
	Faults *faults.Plan
	// MeasureControlLatency records each flow's flowlet-start→first-rate
	// arrival latency (in simulated time, hence deterministic) and the
	// daemons' exchange-staleness and solver-loop counters into the
	// result's Control block.
	MeasureControlLatency bool
}

// withDefaults fills unset scenario fields.
func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s-%s-%s", c.Workload, c.Arrival, c.Pattern)
	}
	if c.FatTreeK == 0 {
		c.FatTreeK = 4
	}
	if c.Load == 0 {
		c.Load = 0.6
	}
	if c.Duration == 0 {
		c.Duration = 5e-3
	}
	if c.Warmup == 0 {
		c.Warmup = 1e-3
	}
	return c
}

// buildTopology constructs the scenario's fabric.
func (c ScenarioConfig) buildTopology() (*topology.Topology, string, error) {
	if c.Topology == TopoFatTree {
		base := topology.DefaultSimConfig()
		topo, err := topology.NewFatTree(topology.FatTreeConfig{
			K:             c.FatTreeK,
			LinkCapacity:  base.LinkCapacity,
			LinkDelay:     base.LinkDelay,
			HostDelay:     base.HostDelay,
			WithAllocator: true,
		})
		return topo, fmt.Sprintf("fattree(k=%d)", c.FatTreeK), err
	}
	cfg := topology.DefaultSimConfig()
	if c.LeafSpine != nil {
		cfg = *c.LeafSpine
		cfg.WithAllocator = true
	}
	topo, err := topology.NewTwoTier(cfg)
	return topo, fmt.Sprintf("leafspine(%dx%d,%d spines)", cfg.Racks, cfg.ServersPerRack, cfg.Spines), err
}

// BucketStats is the per-flow-size-bucket slice of a scenario result.
type BucketStats struct {
	Bucket   string  `json:"bucket"`
	Count    int     `json:"count"`
	MeanNFCT float64 `json:"mean_norm_fct"`
	P50NFCT  float64 `json:"p50_norm_fct"`
	P99NFCT  float64 `json:"p99_norm_fct"`
}

// ScenarioResult is the machine-readable outcome of one scenario run; it is
// what cmd/flowtune-bench serializes into BENCH_<name>.json. All fields are
// deterministic functions of the configuration and seed.
type ScenarioResult struct {
	// Schema versions the JSON layout.
	Schema string `json:"schema"`
	// Run identification.
	Name     string  `json:"name"`
	Scheme   string  `json:"scheme"`
	Topology string  `json:"topology"`
	Servers  int     `json:"servers"`
	Pattern  string  `json:"pattern"`
	Arrival  string  `json:"arrival"`
	Workload string  `json:"workload"`
	Load     float64 `json:"offered_load"`
	Seed     int64   `json:"seed"`
	// Warmup and Duration are the configured windows in seconds.
	Warmup   float64 `json:"warmup_sec"`
	Duration float64 `json:"duration_sec"`
	// Flow accounting over the measured window.
	Flows          int     `json:"flows"`
	FinishedFlows  int     `json:"finished_flows"`
	CompletionRate float64 `json:"completion_rate"`
	// FCTSeconds summarizes absolute flow completion times of finished
	// measured flows; NormFCT normalizes each by its ideal duration on an
	// empty fabric (the paper's Figure 8 metric).
	FCTSeconds metrics.DistStats `json:"fct_sec"`
	NormFCT    metrics.DistStats `json:"norm_fct"`
	// Buckets breaks normalized FCT down by the Figure 8 size buckets.
	Buckets []BucketStats `json:"buckets"`
	// GoodputBps is the distinct payload bytes delivered to receivers
	// during the measurement window, as a rate; AchievedLoad is that
	// goodput as a fraction of aggregate server link capacity.
	GoodputBps   float64 `json:"goodput_bps"`
	AchievedLoad float64 `json:"achieved_load"`
	// Fabric-level counters over the whole run (including warmup).
	DroppedBytes int64 `json:"dropped_bytes"`
	ControlBytes int64 `json:"control_bytes"`
	// Faults is the injection report of a fault-plan scenario; nil
	// (omitted) for ordinary runs, so their baselines are unaffected.
	Faults *faults.Report `json:"faults,omitempty"`
	// Control carries the control-plane latency and staleness measurements
	// of a MeasureControlLatency run; nil (omitted) otherwise.
	Control *ControlStats `json:"control,omitempty"`
	// Wire carries the daemon-side wire v4 byte counters of a Daemon run.
	// It is deliberately excluded from the serialized result: the counters
	// depend on the wire encoding, and keeping them out of BENCH_*.json
	// lets every committed scenario baseline stay byte-identical when the
	// encoding changes. The scaling artifact (BENCH_scaling.json) is where
	// they are published and diffed.
	Wire *WireScenarioStats `json:"-"`
}

// WireScenarioStats aggregates the daemons' fan-out and exchange byte
// counters over a scenario run, with the fixed v3-encoding cost of the same
// traffic alongside for the compression ratio.
type WireScenarioStats struct {
	FanoutBytes        int64
	FanoutBytesFixed   int64
	ExchangeBytes      int64
	ExchangeBytesFixed int64
}

// ControlStats measures the control loop the paper budgets at ~10 µs per
// iteration: how long endpoints wait between starting a flowlet and hearing
// their first allocated rate, and how stale the boundary-price exchange is
// when daemons fold peer updates. Every field is computed from simulated
// time and step-mode counters, so it is byte-deterministic; the wall-clock
// side of the budget (LoopStats latency of free-running daemons) lives in
// the test suite, not in baselines.
type ControlStats struct {
	// RateLatencySec summarizes, per flow, the simulated time between the
	// flowlet-start control message leaving the host and the first rate
	// update arriving back.
	RateLatencySec     metrics.DistStats `json:"rate_latency_sec"`
	RateLatencySamples int               `json:"rate_latency_samples"`
	// ExchangeFolds counts boundary-price exchange messages folded across
	// all daemons; MeanStalenessIters is the mean number of local
	// iterations the folded prices lagged behind (1.0 is the step-mode
	// floor: peers publish at iteration k, folds happen at k+1).
	ExchangeFolds      int64   `json:"exchange_folds,omitempty"`
	MeanStalenessIters float64 `json:"mean_staleness_iters,omitempty"`
	// LoopIterations and LoopUpdatesPerIteration aggregate the daemons'
	// solver-loop counters (iterations run, rate updates emitted per
	// iteration).
	LoopIterations          int64   `json:"loop_iterations,omitempty"`
	LoopUpdatesPerIteration float64 `json:"loop_updates_per_iteration,omitempty"`
	// FanoutBytes/ExchangeBytes aggregate the daemons' wire v4 byte
	// counters, with the fixed v3 cost of the same payloads alongside.
	// Excluded from the serialized result for the same reason as
	// ScenarioResult.Wire — they depend on the wire encoding, and keeping
	// them out of BENCH_*.json keeps the control-latency baselines
	// byte-identical when the encoding changes; Render reports them.
	FanoutBytes        int64 `json:"-"`
	FanoutBytesFixed   int64 `json:"-"`
	ExchangeBytes      int64 `json:"-"`
	ExchangeBytesFixed int64 `json:"-"`
}

// ScenarioResultSchema identifies the current BENCH_*.json layout.
const ScenarioResultSchema = "flowtune-bench/scenario/v1"

// syntheticFlowIDBase is the flow-ID space of fault-plan synthetic flowlets,
// far above any workload trace ID.
const syntheticFlowIDBase = int64(1) << 40

// RunScenario executes one scenario end to end: it builds the fabric,
// generates the flowlet trace, drives the allocator and packet simulator
// under churn, and condenses the outcome into a ScenarioResult.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg = cfg.withDefaults()
	topo, topoName, err := cfg.buildTopology()
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
	}
	horizon := cfg.Warmup + cfg.Duration
	engCfg := transport.EngineConfig{
		Scheme:   cfg.Scheme,
		Topology: topo,
		Horizon:  horizon,
	}
	if cfg.Shards > 1 && !cfg.Daemon {
		return nil, fmt.Errorf("experiments: scenario %s: Shards requires Daemon mode", cfg.Name)
	}
	if cfg.Blocks > 0 && !cfg.Daemon {
		return nil, fmt.Errorf("experiments: scenario %s: Blocks requires Daemon mode", cfg.Name)
	}
	if cfg.Faults != nil {
		if cfg.Scheme != transport.Flowtune {
			return nil, fmt.Errorf("experiments: scenario %s: fault plans require the Flowtune scheme, got %s", cfg.Name, cfg.Scheme)
		}
		if cfg.Faults.HasKills() && cfg.Shards <= 1 {
			return nil, fmt.Errorf("experiments: scenario %s: kill events require Shards > 1", cfg.Name)
		}
	}
	engCfg.TrackRateLatency = cfg.MeasureControlLatency
	var (
		cl  *cluster.Cluster
		cli *transport.ShardedClient
		srv *server.Server
	)
	if cfg.Daemon {
		if cfg.Scheme != transport.Flowtune {
			return nil, fmt.Errorf("experiments: scenario %s: Daemon requires the Flowtune scheme, got %s", cfg.Name, cfg.Scheme)
		}
		if cfg.Shards > 1 {
			// Host the allocator in a sharded cluster of step-driven
			// daemons: the trace's flowlets are hashed to their owning
			// shards, rate updates are merged back, and boundary prices
			// are exchanged between the daemons at every tick.
			clCfg := cluster.Config{Topology: topo, Shards: cfg.Shards, Blocks: cfg.Blocks}
			if cfg.Faults != nil && cfg.Faults.HasKills() {
				// A kill run needs peers that detect the death and adopt
				// the orphaned rack block.
				clCfg.Takeover = true
			}
			cl, err = cluster.New(clCfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
			}
			defer cl.Close()
			cli, err = cl.Client(uint64(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
			}
			defer cli.Close()
			engCfg.ExternalAllocator = cli
		} else {
			// Host the allocator in a step-driven flowtuned daemon reached
			// over an in-memory pipe: flowlet notifications and rate updates
			// cross the wire protocol, and each simulated allocator tick
			// becomes one synchronous daemon Step.
			srv, err = server.New(server.Config{Topology: topo, Blocks: cfg.Blocks})
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
			}
			defer srv.Close()
			clientEnd, serverEnd := net.Pipe()
			go srv.ServeConn(serverEnd)
			acli, err := transport.NewAllocClient(clientEnd, uint64(cfg.Seed))
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
			}
			defer acli.Close()
			engCfg.ExternalAllocator = acli
		}
	}
	eng, err := transport.NewEngine(engCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
	}
	// Install the fault injector between the engine and whichever backend it
	// already has — the in-process allocator, the daemon client, or the
	// sharded-cluster client; the injector cannot tell the difference.
	var inj *faults.Injector
	var synthetic []workload.Flowlet
	if cfg.Faults != nil {
		deps := faults.InjectorConfig{
			Plan:     *cfg.Faults,
			Topology: topo,
			Fabric:   eng.Network(),
			Cluster:  cl,
			Client:   cli,
		}
		switch {
		case cl != nil:
			deps.Capacity = cl
		case srv != nil:
			deps.Capacity = srv
		default:
			deps.Capacity = eng.Allocator()
		}
		var injErr error
		if err := eng.WrapBackend(func(inner transport.AllocatorBackend) transport.AllocatorBackend {
			inj, injErr = faults.NewInjector(deps, inner)
			if injErr != nil {
				return inner
			}
			return inj
		}); err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
		}
		if injErr != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, injErr)
		}
		// Traffic events become synthetic flowlets whose arrivals track the
		// allocator-step cadence and whose IDs are disjoint from the trace's.
		synthetic = cfg.Faults.SyntheticFlowlets(topo.NumServers(), transport.AllocatorPeriod, syntheticFlowIDBase)
	}
	trace, err := workload.NewTrace(workload.TraceConfig{
		Pattern:            cfg.Pattern,
		Arrival:            cfg.Arrival,
		Kind:               cfg.Workload,
		Dist:               cfg.Dist,
		NumServers:         topo.NumServers(),
		ServerLinkCapacity: topo.Config().LinkCapacity,
		Load:               cfg.Load,
		Seed:               cfg.Seed,
		IncastFanIn:        cfg.IncastFanIn,
		IncastTarget:       cfg.IncastTarget,
		Concurrency:        cfg.Concurrency,
		ThinkTime:          cfg.ThinkTime,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
	}

	// Pump the trace into the engine. Open-loop traces are fully known up
	// front; closed-loop traces emit new arrivals as completions come in.
	pump := func() error {
		for {
			f, ok := trace.NextBefore(horizon)
			if !ok {
				return nil
			}
			if err := eng.AddFlowlet(f); err != nil {
				return err
			}
		}
	}
	var pumpErr error
	eng.SetFlowCompleteHook(func(id int64, at float64) {
		trace.Complete(id, at)
		if err := pump(); err != nil && pumpErr == nil {
			pumpErr = err
		}
	})
	if err := pump(); err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
	}
	for _, f := range synthetic {
		if err := eng.AddFlowlet(f); err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: synthetic flowlet: %w", cfg.Name, err)
		}
	}
	// Run warmup first so goodput can be measured as the delivered-byte
	// delta over the measurement window alone.
	eng.Run(cfg.Warmup)
	warmupBytes := eng.DeliveredBytes()
	eng.Run(horizon)
	if pumpErr != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, pumpErr)
	}
	if err := eng.Err(); err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: control plane: %w", cfg.Name, err)
	}

	var faultReport *faults.Report
	if inj != nil {
		faultReport, err = inj.Finish(len(synthetic))
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", cfg.Name, err)
		}
	}

	res := &ScenarioResult{
		Schema:   ScenarioResultSchema,
		Name:     cfg.Name,
		Scheme:   cfg.Scheme.String(),
		Topology: topoName,
		Servers:  topo.NumServers(),
		Pattern:  cfg.Pattern.String(),
		Arrival:  cfg.Arrival.String(),
		Workload: workloadName(cfg),
		Load:     cfg.Load,
		Seed:     cfg.Seed,
		Warmup:   cfg.Warmup,
		Duration: cfg.Duration,
		Faults:   faultReport,
	}

	if cfg.MeasureControlLatency {
		lat := eng.RateLatencies()
		ctl := &ControlStats{
			RateLatencySec:     metrics.Summarize(lat),
			RateLatencySamples: len(lat),
		}
		var stale, iters, updates int64
		collect := func(s *server.Server) {
			st := s.Stats()
			ctl.ExchangeFolds += st.ExchangeFolds
			stale += st.ExchangeStalenessIters
			ctl.FanoutBytes += st.FanoutBytes
			ctl.FanoutBytesFixed += st.FanoutBytesFixed
			ctl.ExchangeBytes += st.ExchangeBytes
			ctl.ExchangeBytesFixed += st.ExchangeBytesFixed
			ls := s.LoopStats()
			iters += ls.Iterations
			updates += ls.Updates
		}
		if cl != nil {
			for i := 0; i < cl.NumShards(); i++ {
				collect(cl.Server(i))
			}
		} else if srv != nil {
			collect(srv)
		}
		if ctl.ExchangeFolds > 0 {
			ctl.MeanStalenessIters = float64(stale) / float64(ctl.ExchangeFolds)
		}
		ctl.LoopIterations = iters
		if iters > 0 {
			ctl.LoopUpdatesPerIteration = float64(updates) / float64(iters)
		}
		res.Control = ctl
	}

	// Statistics over flows that arrived after warmup.
	var measured []metrics.FlowRecord
	for _, r := range eng.Records() {
		if r.Start >= cfg.Warmup {
			measured = append(measured, r)
		}
	}
	res.Flows = len(measured)
	res.CompletionRate = metrics.CompletionRate(measured)
	var fcts, nfcts []float64
	for _, r := range measured {
		if !r.Finished() {
			continue
		}
		res.FinishedFlows++
		fcts = append(fcts, r.FCT())
		nfcts = append(nfcts, r.NormalizedFCT())
	}
	res.FCTSeconds = metrics.Summarize(fcts)
	res.NormFCT = metrics.Summarize(nfcts)
	for _, s := range metrics.SummarizeFCT(measured, workload.BucketLabel, workload.Buckets()) {
		res.Buckets = append(res.Buckets, BucketStats{
			Bucket:   s.Bucket,
			Count:    s.Count,
			MeanNFCT: s.Mean,
			P50NFCT:  s.P50,
			P99NFCT:  s.P99,
		})
	}
	// Daemon-backed runs report their wire byte counters (not serialized;
	// see WireScenarioStats).
	if cl != nil {
		w := cl.WireStats()
		res.Wire = &WireScenarioStats{
			FanoutBytes:        w.FanoutBytes,
			FanoutBytesFixed:   w.FanoutBytesFixed,
			ExchangeBytes:      w.ExchangeBytes,
			ExchangeBytesFixed: w.ExchangeBytesFixed,
		}
	} else if srv != nil {
		st := srv.Stats()
		res.Wire = &WireScenarioStats{
			FanoutBytes:      st.FanoutBytes,
			FanoutBytesFixed: st.FanoutBytesFixed,
		}
	}

	res.GoodputBps = float64((eng.DeliveredBytes()-warmupBytes)*8) / cfg.Duration
	res.AchievedLoad = res.GoodputBps / (float64(topo.NumServers()) * topo.Config().LinkCapacity)
	res.DroppedBytes = eng.DroppedBytes()
	res.ControlBytes = eng.ControlBytes()
	return res, nil
}

// workloadName labels the size distribution in reports.
func workloadName(cfg ScenarioConfig) string {
	if cfg.Dist != nil {
		return cfg.Dist.Name()
	}
	return cfg.Workload.String()
}

// Render prints a short human-readable summary of a scenario result.
func (r *ScenarioResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %s on %s (%d servers), %s/%s %s at load %.2f\n",
		r.Name, r.Scheme, r.Topology, r.Servers, r.Workload, r.Arrival, r.Pattern, r.Load)
	fmt.Fprintf(&b, "  flows %d, finished %d (%.1f%%)\n", r.Flows, r.FinishedFlows, 100*r.CompletionRate)
	fmt.Fprintf(&b, "  FCT p50 %.1f µs, p99 %.1f µs; normalized p50 %.2f, p99 %.2f\n",
		r.FCTSeconds.P50*1e6, r.FCTSeconds.P99*1e6, r.NormFCT.P50, r.NormFCT.P99)
	fmt.Fprintf(&b, "  goodput %s (%.1f%% of aggregate capacity), dropped %d bytes\n",
		metrics.FormatRate(r.GoodputBps), 100*r.AchievedLoad, r.DroppedBytes)
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "  faults: %d events (%d capacity, %d rehash, %d drain, %d kill), %d synthetic flows\n",
			f.EventsApplied, f.CapacityChanges, f.Rehashes, f.Drains, len(f.Kills), f.SyntheticFlows)
		for _, k := range f.Kills {
			drain := ""
			if k.DuringDrain {
				drain = " (during drain)"
			}
			fmt.Fprintf(&b, "    kill: shard %d at step %d%s, shard %d adopted %d flows in %d steps (%d takeovers)\n",
				k.Shard, k.Step, drain, k.Adopter, k.AdoptedFlows, k.RecoverySteps, k.Takeovers)
		}
	}
	if c := r.Control; c != nil {
		fmt.Fprintf(&b, "  control: first rate after p50 %.1f µs, p99 %.1f µs (%d flows)",
			c.RateLatencySec.P50*1e6, c.RateLatencySec.P99*1e6, c.RateLatencySamples)
		if c.ExchangeFolds > 0 {
			fmt.Fprintf(&b, "; exchange staleness %.2f iters over %d folds", c.MeanStalenessIters, c.ExchangeFolds)
		}
		b.WriteByte('\n')
		if c.FanoutBytes > 0 || c.ExchangeBytes > 0 {
			fmt.Fprintf(&b, "  control wire: fan-out %d B (fixed v3 %d B), exchange %d B (fixed v3 %d B)\n",
				c.FanoutBytes, c.FanoutBytesFixed, c.ExchangeBytes, c.ExchangeBytesFixed)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Named scenarios

// scenarioSpec builds the full- and short-mode configurations of one named
// scenario.
type scenarioSpec struct {
	about string
	build func(short bool) ScenarioConfig
}

// shortLeafSpine is the shrunken two-tier fabric used by -short runs.
func shortLeafSpine() *topology.Config {
	cfg := topology.DefaultSimConfig()
	cfg.Racks = 4
	cfg.ServersPerRack = 4
	cfg.Spines = 2
	return &cfg
}

// shrink applies the -short run windows.
func shrink(cfg ScenarioConfig, short bool) ScenarioConfig {
	if short {
		cfg.LeafSpine = shortLeafSpine()
		cfg.Warmup = 0.5e-3
		cfg.Duration = 1.5e-3
	}
	return cfg
}

// incastScenario builds the incast configuration; the daemon-incast entry
// derives from it so the pair can never drift apart.
func incastScenario(short bool) ScenarioConfig {
	cfg := shrink(ScenarioConfig{
		Name:        "incast",
		Workload:    workload.Cache,
		Pattern:     workload.PatternIncast,
		Load:        0.6,
		IncastFanIn: 32,
	}, short)
	if short {
		cfg.IncastFanIn = 8
	}
	return cfg
}

// namedScenarios is the scenario registry of cmd/flowtune-bench.
var namedScenarios = map[string]scenarioSpec{
	"websearch-poisson": {
		about: "DCTCP web-search sizes, open-loop Poisson, uniform pairs",
		build: func(short bool) ScenarioConfig {
			return shrink(ScenarioConfig{
				Name:     "websearch-poisson",
				Workload: workload.WebSearch,
				Pattern:  workload.PatternUniform,
				Load:     0.6,
			}, short)
		},
	},
	"datamining-poisson": {
		about: "VL2 data-mining sizes, open-loop Poisson, uniform pairs",
		build: func(short bool) ScenarioConfig {
			return shrink(ScenarioConfig{
				Name:     "datamining-poisson",
				Workload: workload.DataMining,
				Pattern:  workload.PatternUniform,
				Load:     0.5,
			}, short)
		},
	},
	"permutation": {
		about: "Facebook Web sizes over a fixed server permutation",
		build: func(short bool) ScenarioConfig {
			return shrink(ScenarioConfig{
				Name:     "permutation",
				Workload: workload.Web,
				Pattern:  workload.PatternPermutation,
				Load:     0.7,
			}, short)
		},
	},
	"incast": {
		about: "Facebook Cache sizes in synchronized many-to-one bursts",
		build: incastScenario,
	},
	"shuffle": {
		about: "Facebook Hadoop sizes in an all-to-all shuffle",
		build: func(short bool) ScenarioConfig {
			return shrink(ScenarioConfig{
				Name:     "shuffle",
				Workload: workload.Hadoop,
				Pattern:  workload.PatternShuffle,
				Load:     0.6,
			}, short)
		},
	},
	"daemon-incast": {
		about: "the incast scenario with the allocator behind the flowtuned wire protocol",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "daemon-incast"
			cfg.Daemon = true
			return cfg
		},
	},
	"sharded-incast": {
		about: "the incast scenario on a sharded flowtuned cluster with boundary-price exchange",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "sharded-incast"
			cfg.Daemon = true
			// Shards must divide the rack count: thirds of the paper's
			// 9-rack fabric, halves of the 4-rack short fabric.
			cfg.Shards = 3
			if short {
				cfg.Shards = 2
			}
			return cfg
		},
	},
	"sharded-multicore": {
		about: "the incast scenario on a sharded cluster of multicore daemons (2+ rack blocks each + boundary exchange)",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "sharded-multicore"
			cfg.Daemon = true
			cfg.Shards = 2
			if short {
				// Halves of the 4-rack short fabric, each daemon split
				// into 2 FlowBlock columns.
				cfg.Blocks = 2
			} else {
				// More than one block needs a power-of-two block count
				// dividing the racks, which the paper's 9-rack fabric is
				// not; run the full-size variant on 8 racks.
				base := topology.DefaultSimConfig()
				base.Racks = 8
				cfg.LeafSpine = &base
				cfg.Blocks = 4
			}
			return cfg
		},
	},
	"chaos-failover": {
		about: "sharded-incast with one daemon killed mid-measurement and its rack block adopted by a peer",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "chaos-failover"
			cfg.Daemon = true
			cfg.Shards = 3
			// Kill the last daemon halfway through the measurement window
			// (each allocator step is 10 µs). Warmup ends at step 100 full,
			// step 50 short; shard 0, the successor ring's wrap target,
			// adopts it.
			step := 300
			if short {
				cfg.Shards = 2
				step = 100
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{{Step: step, Kind: faults.KillDaemon, Shard: cfg.Shards - 1}}}
			return cfg
		},
	},
	"linkdown-websearch": {
		about: "web-search traffic with a spine uplink dying and another browning out mid-measurement",
		build: func(short bool) ScenarioConfig {
			cfg := shrink(ScenarioConfig{
				Name:     "linkdown-websearch",
				Workload: workload.WebSearch,
				Pattern:  workload.PatternUniform,
				Load:     0.6,
			}, short)
			down, degrade := 250, 350
			if short {
				down, degrade = 100, 140
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{
				{Step: down, Kind: faults.LinkDown, Rack: 0, Spine: 1},
				{Step: degrade, Kind: faults.LinkDegrade, Rack: 1, Spine: 0, Fraction: 0.25},
			}}
			return cfg
		},
	},
	"trafficshift-rehash": {
		about: "web-search traffic hit by an ECMP re-hash and then a sudden permutation overlay",
		build: func(short bool) ScenarioConfig {
			cfg := shrink(ScenarioConfig{
				Name:     "trafficshift-rehash",
				Workload: workload.WebSearch,
				Pattern:  workload.PatternUniform,
				Load:     0.5,
			}, short)
			rehash, shift := 200, 300
			if short {
				rehash, shift = 80, 120
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{
				{Step: rehash, Kind: faults.ECMPRehash, Salt: 2654435769},
				{Step: shift, Kind: faults.TrafficShift, Stride: 3, SizeBytes: 100_000},
			}}
			return cfg
		},
	},
	"flashcrowd-incast": {
		about: "the incast scenario with a synthetic flash-crowd ramping onto one server mid-measurement",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "flashcrowd-incast"
			step, fanIn := 300, 48
			if short {
				step, fanIn = 100, 12
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{
				{Step: step, Kind: faults.FlashCrowd, Target: 1, FanIn: fanIn, SizeBytes: 51_200, Ramp: 20},
			}}
			return cfg
		},
	},
	"cascade-failover": {
		about: "sharded-incast with two daemons killed in cascade and their rack blocks adopted by survivors",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "cascade-failover"
			cfg.Daemon = true
			cfg.Shards = 3
			step := 300
			if short {
				// The 4-rack short fabric needs 4 one-rack shards so two
				// kills still leave survivors to adopt them.
				cfg.Shards = 4
				step = 100
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{
				{Step: step, Kind: faults.CascadeKill, Shard: cfg.Shards - 1, Count: 2, Spacing: 30},
			}}
			return cfg
		},
	},
	"kill-during-drain": {
		about: "sharded-incast with a daemon drained for handover, then killed before the drain completes",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "kill-during-drain"
			cfg.Daemon = true
			cfg.Shards = 3
			step := 300
			if short {
				cfg.Shards = 2
				step = 100
			}
			cfg.Faults = &faults.Plan{Events: []faults.Event{
				{Step: step, Kind: faults.KillDuringDrain, Shard: cfg.Shards - 1, Delay: 5},
			}}
			return cfg
		},
	},
	"freerun-latency": {
		about: "sharded-incast measuring flowlet-start→rate latency and exchange staleness against the 10 µs budget",
		build: func(short bool) ScenarioConfig {
			cfg := incastScenario(short)
			cfg.Name = "freerun-latency"
			cfg.Daemon = true
			cfg.Shards = 3
			if short {
				cfg.Shards = 2
			}
			cfg.MeasureControlLatency = true
			return cfg
		},
	},
	"closedloop-cache": {
		about: "Facebook Cache sizes, closed loop (2 outstanding per server)",
		build: func(short bool) ScenarioConfig {
			return shrink(ScenarioConfig{
				Name:        "closedloop-cache",
				Workload:    workload.Cache,
				Pattern:     workload.PatternUniform,
				Arrival:     workload.ArrivalClosedLoop,
				Concurrency: 2,
				ThinkTime:   50e-6,
			}, short)
		},
	},
	"fattree-websearch": {
		about: "web-search Poisson traffic on a three-tier fat-tree",
		build: func(short bool) ScenarioConfig {
			cfg := shrink(ScenarioConfig{
				Name:     "fattree-websearch",
				Topology: TopoFatTree,
				FatTreeK: 8,
				Workload: workload.WebSearch,
				Pattern:  workload.PatternUniform,
				Load:     0.6,
			}, short)
			cfg.LeafSpine = nil // shrink's leaf-spine override does not apply
			if short {
				cfg.FatTreeK = 4
			}
			return cfg
		},
	},
}

// ScenarioNames lists the named scenarios in a stable order.
func ScenarioNames() []string {
	names := make([]string, 0, len(namedScenarios))
	for n := range namedScenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScenarioAbout returns the one-line description of a named scenario.
func ScenarioAbout(name string) string { return namedScenarios[name].about }

// NamedScenario returns the configuration of a named scenario. short selects
// the shrunken fabric and windows used by CI smoke runs.
func NamedScenario(name string, short bool, seed int64) (ScenarioConfig, error) {
	spec, ok := namedScenarios[name]
	if !ok {
		return ScenarioConfig{}, fmt.Errorf("experiments: unknown scenario %q (have: %s)", name, strings.Join(ScenarioNames(), ", "))
	}
	cfg := spec.build(short)
	cfg.Seed = seed
	return cfg, nil
}
