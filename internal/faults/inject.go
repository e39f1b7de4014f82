package faults

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Fabric sets data-plane link rates; implemented by sim.Network.
type Fabric interface {
	SetLinkRate(id topology.LinkID, rate float64) error
}

// CapacitySetter sets control-plane link capacities; implemented by
// core.ParallelAllocator (the simulator's in-process allocator),
// server.Server, and cluster.Cluster (broadcast).
type CapacitySetter interface {
	SetLinkCapacity(l topology.LinkID, capacity float64) error
}

// InjectorConfig wires an Injector to the run it disturbs.
type InjectorConfig struct {
	// Plan is the fault schedule. Traffic events are ignored at runtime
	// (the scenario runner materializes them via SyntheticFlowlets).
	Plan Plan
	// Topology resolves symbolic link references and carries the ECMP
	// route salt. Required.
	Topology *topology.Topology
	// Fabric applies link events to the simulated data plane; optional
	// (nil leaves the data plane untouched — control-plane-only runs).
	Fabric Fabric
	// Capacity applies link events to the allocator's view so it
	// re-prices; required when the plan has link events.
	Capacity CapacitySetter
	// Cluster and Client are the sharded daemons and their endpoint
	// session; required when the plan has kill or drain events.
	Cluster *cluster.Cluster
	// Client is the sharded session the Injector shepherds through
	// failover after a kill (it is also, typically, the inner backend).
	Client *transport.ShardedClient
}

// KillRecord is the recovery trace of one daemon kill.
type KillRecord struct {
	// Shard is the killed daemon; Step the allocator step the kill
	// landed at. DuringDrain marks kills that interrupted a drain.
	Shard       int  `json:"shard"`
	Step        int  `json:"step"`
	DuringDrain bool `json:"during_drain,omitempty"`
	// Adopter is the daemon that took the shard over; RecoverySteps the
	// number of allocator steps from the kill (inclusive) until the
	// endpoint failed over to the adopter.
	Adopter       int `json:"adopter"`
	RecoverySteps int `json:"recovery_steps"`
	// AdoptedFlows and Takeovers are the adopter daemon's counters at the
	// end of the run (shared between records when one daemon adopts
	// several shards of a cascade).
	AdoptedFlows int64 `json:"adopted_flows"`
	Takeovers    int64 `json:"takeovers"`

	killed     bool
	failedOver bool
}

// Report summarizes what the Injector did; it is embedded in scenario
// results and therefore must be byte-deterministic.
type Report struct {
	EventsApplied   int          `json:"events_applied"`
	CapacityChanges int          `json:"capacity_changes,omitempty"`
	Rehashes        int          `json:"rehashes,omitempty"`
	Drains          int          `json:"drains,omitempty"`
	SyntheticFlows  int          `json:"synthetic_flows,omitempty"`
	Kills           []KillRecord `json:"kills,omitempty"`
}

// op is one expanded runtime action. Kill/drain ops reference kills/drains
// by index; link and rehash ops carry their resolved parameters.
type op struct {
	step int
	kind Kind // LinkDown/LinkDegrade (capacity), ECMPRehash, KillDaemon (kill), or drain (see drain flag)
	// capacity op
	link topology.LinkID
	frac float64
	// rehash op
	salt uint64
	// kill / drain op
	kill  int // index into Injector.kills
	shard int
	drain bool
}

// Injector applies a Plan to a live run. It implements
// transport.AllocatorBackend and is installed with Engine.WrapBackend; the
// inner backend receives every flowlet event and step untouched.
type Injector struct {
	cfg   InjectorConfig
	inner transport.AllocatorBackend
	ops   []op
	next  int
	steps int
	kills []KillRecord
	rep   Report

	// Scrape-safe mirrors of the step counter and report fields: rep and
	// steps are mutated on the engine goroutine while an admin endpoint
	// scrapes from HTTP goroutines, so RegisterMetrics binds to these
	// atomics instead.
	mSteps     atomic.Int64
	mEvents    atomic.Int64
	mCapacity  atomic.Int64
	mRehashes  atomic.Int64
	mDrains    atomic.Int64
	mKills     atomic.Int64
	mFailovers atomic.Int64
}

// RegisterMetrics exposes the injector's activity in reg under the
// flowtune_fault_ prefix, bound at scrape time to the atomic mirrors.
func (in *Injector) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	bind := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, labels...)
	}
	bind("flowtune_fault_steps_total", "Allocator steps forwarded through the injector.", &in.mSteps)
	bind("flowtune_fault_events_applied_total", "Fault-plan events applied.", &in.mEvents)
	bind("flowtune_fault_capacity_changes_total", "Link capacity changes injected.", &in.mCapacity)
	bind("flowtune_fault_rehashes_total", "ECMP rehashes injected.", &in.mRehashes)
	bind("flowtune_fault_drains_total", "Graceful drains initiated by the plan.", &in.mDrains)
	bind("flowtune_fault_kills_total", "Daemon kills applied.", &in.mKills)
	bind("flowtune_fault_failovers_total", "Endpoint failovers completed after kills.", &in.mFailovers)
}

// NewInjector expands and validates the plan against the concrete run. The
// inner backend is whatever the engine was already using.
func NewInjector(cfg InjectorConfig, inner transport.AllocatorBackend) (*Injector, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("faults: InjectorConfig.Topology is required")
	}
	if inner == nil {
		return nil, fmt.Errorf("faults: inner backend is required")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: cfg, inner: inner}
	for i, e := range cfg.Plan.Events {
		if err := in.expand(e); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	// Events are scheduled in step order; expansion preserves the listed
	// order within a step (stable sort).
	stableSortOps(in.ops)
	if len(in.kills) > 0 {
		if cfg.Cluster == nil || cfg.Client == nil {
			return nil, fmt.Errorf("faults: kill events require a cluster and a sharded client")
		}
		// Frozen sessions keep their registrations, which is what lets
		// Failover re-home them — same policy as the retired chaos backend.
		cfg.Client.SetFreezeOnFailure(true)
	}
	return in, nil
}

func (in *Injector) expand(e Event) error {
	switch e.Kind {
	case LinkDown, LinkDegrade:
		if in.cfg.Capacity == nil {
			return fmt.Errorf("%s: no capacity setter wired", e.Kind)
		}
		l, ok := in.resolveLink(e)
		if !ok {
			return fmt.Errorf("%s: no link rack=%d spine=%d down=%v in this fabric", e.Kind, e.Rack, e.Spine, e.Down)
		}
		frac := DeadLinkFraction
		if e.Kind == LinkDegrade {
			frac = e.Fraction
		}
		in.ops = append(in.ops, op{step: e.Step, kind: e.Kind, link: l, frac: frac})
	case ECMPRehash:
		in.ops = append(in.ops, op{step: e.Step, kind: ECMPRehash, salt: e.Salt})
	case KillDaemon:
		return in.addKill(e.Step, e.Shard, false)
	case KillDuringDrain:
		if err := in.checkShard(e.Shard); err != nil {
			return err
		}
		in.ops = append(in.ops, op{step: e.Step, kind: KillDuringDrain, drain: true, shard: e.Shard})
		return in.addKill(e.Step+e.Delay, e.Shard, true)
	case CascadeKill:
		n := in.numShards()
		if e.Count >= n {
			return fmt.Errorf("cascade-kill: count %d must leave a survivor (%d shards)", e.Count, n)
		}
		for i := 0; i < e.Count; i++ {
			victim := ((e.Shard-i)%n + n) % n
			if err := in.addKill(e.Step+i*e.Spacing, victim, false); err != nil {
				return err
			}
		}
	case FlashCrowd, TrafficShift:
		// Materialized up front by the scenario runner; nothing to do at
		// runtime. The report reflects them through SyntheticFlows.
	}
	return nil
}

func (in *Injector) numShards() int {
	if in.cfg.Cluster == nil {
		return 0
	}
	return in.cfg.Cluster.NumShards()
}

func (in *Injector) checkShard(shard int) error {
	if n := in.numShards(); shard >= n {
		return fmt.Errorf("shard %d out of range (%d shards)", shard, n)
	}
	return nil
}

func (in *Injector) addKill(step, shard int, duringDrain bool) error {
	if err := in.checkShard(shard); err != nil {
		return err
	}
	for _, k := range in.kills {
		if k.Shard == shard {
			return fmt.Errorf("shard %d killed twice", shard)
		}
	}
	in.kills = append(in.kills, KillRecord{Shard: shard, DuringDrain: duringDrain, Adopter: -1})
	in.ops = append(in.ops, op{step: step, kind: KillDaemon, kill: len(in.kills) - 1, shard: shard})
	return nil
}

func stableSortOps(ops []op) {
	// Insertion sort keeps it dependency-free and stable; plans are tiny.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j-1].step > ops[j].step; j-- {
			ops[j-1], ops[j] = ops[j], ops[j-1]
		}
	}
}

// FlowletStart forwards to the inner backend.
func (in *Injector) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return in.inner.FlowletStart(id, src, dst, weight)
}

// FlowletStartSized forwards the wire v4 size-hinted registration when the
// inner backend carries it, degrading to a plain start otherwise.
func (in *Injector) FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error {
	type sized interface {
		FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error
	}
	if s, ok := in.inner.(sized); ok {
		return s.FlowletStartSized(id, src, dst, weight, size)
	}
	return in.inner.FlowletStart(id, src, dst, weight)
}

// FlowletEnd forwards to the inner backend.
func (in *Injector) FlowletEnd(id core.FlowID) error { return in.inner.FlowletEnd(id) }

// Step applies every event due at this step boundary, forwards the step to
// the inner backend, then shepherds outstanding kill recoveries: once the
// takeover successor serves the dead shard, the client fails over and the
// adopter claims the re-registered flows without engine churn. All of it is
// step-indexed, so the injection is as deterministic as the run around it.
func (in *Injector) Step() ([]core.RateUpdate, error) {
	in.steps++
	in.mSteps.Add(1)
	for in.next < len(in.ops) && in.ops[in.next].step <= in.steps {
		o := in.ops[in.next]
		in.next++
		if err := in.apply(o); err != nil {
			return nil, err
		}
	}
	ups, err := in.inner.Step()
	if err != nil {
		return ups, err
	}
	for i := range in.kills {
		k := &in.kills[i]
		if !k.killed || k.failedOver {
			continue
		}
		k.RecoverySteps++
		adopter := in.cfg.Client.Successor(k.Shard)
		if adopter >= 0 && in.cfg.Cluster.Server(adopter).ServesShard(k.Shard) {
			if err := in.cfg.Client.Failover(k.Shard, adopter); err != nil {
				return nil, fmt.Errorf("faults: failover %d→%d: %w", k.Shard, adopter, err)
			}
			k.failedOver = true
			k.Adopter = adopter
			in.mFailovers.Add(1)
		}
	}
	return ups, nil
}

func (in *Injector) apply(o op) error {
	in.rep.EventsApplied++
	in.mEvents.Add(1)
	switch {
	case o.drain:
		in.cfg.Cluster.Drain(o.shard)
		in.rep.Drains++
		in.mDrains.Add(1)
	case o.kind == KillDaemon:
		if err := in.cfg.Cluster.Kill(o.shard); err != nil {
			return fmt.Errorf("faults: kill shard %d: %w", o.shard, err)
		}
		k := &in.kills[o.kill]
		k.killed = true
		k.Step = in.steps
		in.mKills.Add(1)
	case o.kind == ECMPRehash:
		in.cfg.Topology.SetRouteSalt(o.salt)
		in.rep.Rehashes++
		in.mRehashes.Add(1)
	default: // LinkDown / LinkDegrade
		raw := in.cfg.Topology.Link(o.link).Capacity * o.frac
		if err := in.cfg.Capacity.SetLinkCapacity(o.link, raw); err != nil {
			return fmt.Errorf("faults: link %d capacity: %w", o.link, err)
		}
		if in.cfg.Fabric != nil {
			if err := in.cfg.Fabric.SetLinkRate(o.link, raw); err != nil {
				return fmt.Errorf("faults: link %d rate: %w", o.link, err)
			}
		}
		in.rep.CapacityChanges++
		in.mCapacity.Add(1)
	}
	return nil
}

func (in *Injector) resolveLink(e Event) (topology.LinkID, bool) {
	if e.Down {
		return in.cfg.Topology.DownlinkID(e.Spine, e.Rack)
	}
	return in.cfg.Topology.UplinkID(e.Rack, e.Spine)
}

// Steps returns the number of allocator steps forwarded so far.
func (in *Injector) Steps() int { return in.steps }

// Finish validates that the whole plan ran — every scheduled op applied,
// every kill recovered — and returns the report. syntheticFlows is the
// number of flowlets the runner materialized from the plan's traffic
// events (see SyntheticFlowlets).
func (in *Injector) Finish(syntheticFlows int) (*Report, error) {
	if in.next < len(in.ops) {
		o := in.ops[in.next]
		return nil, fmt.Errorf("faults: run ended before step %d (%s): only %d allocator steps", o.step, o.kind, in.steps)
	}
	for i := range in.kills {
		k := &in.kills[i]
		if !k.failedOver {
			return nil, fmt.Errorf("faults: shard %d never failed over (%d steps since kill)", k.Shard, k.RecoverySteps)
		}
		st := in.cfg.Cluster.Server(k.Adopter).Stats()
		k.AdoptedFlows = st.AdoptedFlows
		k.Takeovers = st.Takeovers
	}
	in.rep.SyntheticFlows = syntheticFlows
	in.rep.Kills = in.kills
	return &in.rep, nil
}
