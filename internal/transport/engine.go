package transport

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// EngineConfig configures a simulation run of one scheme over one workload.
type EngineConfig struct {
	// Scheme selects the congestion-control scheme.
	Scheme Scheme
	// Topology is the fabric to simulate; nil uses the paper's default
	// simulation topology (9 racks × 16 servers, 4 spines, 10 Gbit/s).
	Topology *topology.Topology
	// TrackThroughput enables per-flow throughput time series in
	// ThroughputBucket-wide buckets (used by the Figure 4 convergence
	// experiment).
	TrackThroughput bool
	// QueueSamplePeriod enables periodic queue sampling when positive
	// (the paper samples every 1 ms).
	QueueSamplePeriod float64
	// Horizon is the simulation end time in seconds; required by Run.
	Horizon float64
	// ExternalAllocator, when set, terminates the Flowtune control plane
	// outside the engine — typically an AllocClient speaking the wire
	// protocol to a flowtuned daemon — instead of the in-process allocator.
	// Control messages still traverse the simulated fabric; only the
	// allocator computation moves out of process.
	ExternalAllocator AllocatorBackend
	// TrackRateLatency records, for every flowlet, the simulated time from
	// its start (when the flowlet-start notification leaves the sender)
	// until the first allocator rate update arrives back at the sender —
	// the paper's flowlet-start→rate-arrival control-loop latency. The
	// samples are in sim time, so they are byte-deterministic even though
	// the path includes the allocator's iteration alignment. Flowtune only.
	TrackRateLatency bool
}

// AllocatorPeriod is the Flowtune allocator's iteration period in seconds
// (10 µs, §6.2). Fault-plan steps and the fluid update-traffic model run on
// the same cadence.
const AllocatorPeriod = 10e-6

// ThroughputBucket is the width in seconds of a TrackThroughput time-series
// bucket.
const ThroughputBucket = 100e-6

// The in-process allocator's NED step size γ and its rate-update
// notification threshold, which is also the fraction of link capacity it
// withholds as headroom.
const (
	allocatorGamma     = 0.4
	allocatorThreshold = 0.01
)

// withDefaults fills unset fields.
func (c EngineConfig) withDefaults() (EngineConfig, error) {
	if c.Topology == nil {
		topo, err := topology.NewTwoTier(topology.DefaultSimConfig())
		if err != nil {
			return c, err
		}
		c.Topology = topo
	}
	return c, nil
}

// Engine runs one congestion-control scheme over a set of flowlets on a
// simulated fabric and collects the evaluation metrics.
type Engine struct {
	cfg  EngineConfig
	sim  *sim.Simulator
	net  *sim.Network
	topo *topology.Topology

	conns   map[int64]*conn
	records []metrics.FlowRecord

	// onFlowComplete, if set, fires when a flow's last payload byte
	// arrives at the receiver (used by closed-loop workloads).
	onFlowComplete func(id int64, at float64)
	// deliveredBytes counts distinct payload bytes that reached their
	// receivers (retransmitted duplicates excluded).
	deliveredBytes int64

	// Flowtune-specific allocator endpoint. backend is where control
	// messages terminate (the in-process allocator, or an external
	// daemon client); alloc is only set for the in-process case. senders
	// maps every flow registered with the backend to its sending server,
	// the recipient of its rate updates.
	backend       AllocatorBackend
	backendErr    error
	senders       core.FlowIndex
	alloc         *core.ParallelAllocator
	allocRunning  bool
	allocFailed   bool
	ctrlToAlloc   map[int][]int32 // control path from each server to the allocator
	ctrlFromAlloc map[int][]int32 // control path from the allocator to each server
	controlBytes  int64

	// rateSeen and rateLatencies implement TrackRateLatency: one sample
	// per flowlet, appended in rate-arrival order.
	rateSeen      map[int64]bool
	rateLatencies []float64
}

// NewEngine creates an engine for the given configuration.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := sim.New()
	net, err := sim.NewNetwork(s, cfg.Topology, QueueFactory(cfg.Scheme))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		sim:   s,
		net:   net,
		topo:  cfg.Topology,
		conns: make(map[int64]*conn),
	}
	for srv := 0; srv < e.topo.NumServers(); srv++ {
		server := srv
		net.RegisterHost(server, func(p *sim.Packet) { e.hostReceive(server, p) })
	}
	net.OnDrop(e.packetDropped)
	if cfg.Scheme == Flowtune {
		if err := e.setupAllocator(); err != nil {
			return nil, err
		}
	}
	if cfg.QueueSamplePeriod > 0 && cfg.Horizon > 0 {
		net.StartQueueSampling(cfg.QueueSamplePeriod, cfg.Horizon)
	}
	return e, nil
}

// Sim returns the engine's simulator.
func (e *Engine) Sim() *sim.Simulator { return e.sim }

// Network returns the engine's simulated network.
func (e *Engine) Network() *sim.Network { return e.net }

// Topology returns the fabric being simulated.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// Allocator returns the in-process Flowtune allocator, or nil for other
// schemes and for an ExternalAllocator.
func (e *Engine) Allocator() *core.ParallelAllocator { return e.alloc }

// serverLinkRate returns the capacity of a server's access link.
func (e *Engine) serverLinkRate() float64 { return e.topo.Config().LinkCapacity }

// retxDelay models how long a sender takes to detect and repair a loss.
func (e *Engine) retxDelay(c *conn) float64 {
	switch e.cfg.Scheme {
	case PFabric:
		// pFabric uses aggressive probing and small RTOs.
		return 3 * c.baseRTT
	default:
		return math.Max(200e-6, 2*c.rttEstimate())
	}
}

// rtoInterval is the retransmission-timeout period for lost-ACK recovery.
func (e *Engine) rtoInterval(c *conn) float64 {
	switch e.cfg.Scheme {
	case PFabric:
		return math.Max(60e-6, 3*c.rttEstimate())
	default:
		return math.Max(1e-3, 4*c.rttEstimate())
	}
}

// AddFlowlet registers a flowlet: its connection starts at the flowlet's
// arrival time.
func (e *Engine) AddFlowlet(f workload.Flowlet) error {
	if _, dup := e.conns[f.ID]; dup {
		return fmt.Errorf("transport: flowlet %d already added", f.ID)
	}
	fwd, err := e.topo.Route(f.Src, f.Dst, int(f.ID))
	if err != nil {
		return err
	}
	rev, err := e.topo.Route(f.Dst, f.Src, int(f.ID))
	if err != nil {
		return err
	}
	c := &conn{
		eng:      e,
		id:       f.ID,
		src:      f.Src,
		dst:      f.Dst,
		size:     f.SizeBytes,
		fwdPath:  pathToInt32(fwd),
		revPath:  pathToInt32(rev),
		baseRTT:  e.topo.BaseRTT(f.Src, f.Dst),
		unacked:  make(map[int64]int),
		received: make(map[int64]int),
		snd:      newSender(e.cfg.Scheme),
	}
	idealRate := e.serverLinkRate()
	e.records = append(e.records, metrics.FlowRecord{
		ID:            f.ID,
		SizeBytes:     f.SizeBytes,
		Start:         f.Arrival,
		IdealDuration: float64(f.SizeBytes*8)/idealRate + c.baseRTT,
	})
	c.recordIdx = len(e.records) - 1
	if e.cfg.TrackThroughput {
		c.throughput = metrics.NewThroughputSeries(ThroughputBucket, 0)
	}
	e.conns[f.ID] = c
	e.sim.At(f.Arrival, func() { c.snd.start(c) })
	return nil
}

// AddFlowlets registers a batch of flowlets.
func (e *Engine) AddFlowlets(flows []workload.Flowlet) error {
	for _, f := range flows {
		if err := e.AddFlowlet(f); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the simulation until the configured horizon (or the given
// horizon if the configuration left it zero).
func (e *Engine) Run(horizon float64) {
	if horizon == 0 {
		horizon = e.cfg.Horizon
	}
	if e.cfg.Horizon < horizon {
		e.cfg.Horizon = horizon
	}
	if e.cfg.Scheme == Flowtune && !e.allocRunning {
		e.allocRunning = true
		e.sim.Schedule(AllocatorPeriod, e.allocatorTick)
	}
	e.sim.Run(horizon)
}

// Records returns the per-flow outcome records.
func (e *Engine) Records() []metrics.FlowRecord { return e.records }

// SetFlowCompleteHook registers a callback fired at the simulated time a
// flow's last payload byte arrives at its receiver. Closed-loop workloads use
// it to schedule the next arrival; the callback may add new flowlets.
func (e *Engine) SetFlowCompleteHook(fn func(id int64, at float64)) { e.onFlowComplete = fn }

// StopFlow aborts a flow's sender at the current simulation time: no further
// data is sent and, under Flowtune, a flowlet-end notification is sent to the
// allocator. It is used by the Figure 4 convergence experiment, where senders
// start and stop on a fixed schedule.
func (e *Engine) StopFlow(id int64) {
	c, ok := e.conns[id]
	if !ok || c.senderDone {
		return
	}
	c.senderDone = true
	c.paceRate = 0
	c.nextSeq = c.size // prevent any further new transmissions
	c.retxQueue = nil
	if e.cfg.Scheme == Flowtune {
		e.notifyFlowletEnd(c)
	}
}

// FlowThroughput returns the receiver-side throughput series of a flow (only
// populated when TrackThroughput is set).
func (e *Engine) FlowThroughput(id int64) *metrics.ThroughputSeries {
	if c, ok := e.conns[id]; ok {
		return c.throughput
	}
	return nil
}

// DroppedBytes returns total bytes dropped in the fabric.
func (e *Engine) DroppedBytes() int64 { return e.net.TotalDroppedBytes() }

// DeliveredBytes returns the distinct payload bytes delivered to receivers so
// far. Sampling it before and after a measurement window yields goodput.
func (e *Engine) DeliveredBytes() int64 { return e.deliveredBytes }

// ControlBytes returns the bytes of allocator control traffic injected into
// the fabric (Flowtune only).
func (e *Engine) ControlBytes() int64 { return e.controlBytes }

// AchievedRates returns, for every finished flow, its achieved throughput
// (size divided by completion time), used for the fairness comparison.
func (e *Engine) AchievedRates() []float64 {
	var rates []float64
	for _, r := range e.records {
		if r.Finished() && r.FCT() > 0 {
			rates = append(rates, float64(r.SizeBytes*8)/r.FCT())
		}
	}
	return rates
}

// hostReceive dispatches a packet delivered to a server.
func (e *Engine) hostReceive(server int, p *sim.Packet) {
	switch p.Kind {
	case sim.Data:
		c, ok := e.conns[p.Flow]
		if !ok || server != c.dst {
			return
		}
		ack := c.handleData(p)
		e.sim.Schedule(e.topo.Config().HostDelay, func() { e.net.Send(ack) })
	case sim.Ack:
		c, ok := e.conns[p.Flow]
		if !ok || server != c.src {
			return
		}
		c.handleAck(p)
	case sim.Control:
		if p.Ctrl == nil || p.Ctrl.Type != sim.CtrlRateUpdate {
			return
		}
		c, ok := e.conns[p.Ctrl.Flow]
		if !ok || c.senderDone {
			return
		}
		if ft, ok := c.snd.(*flowtuneSender); ok {
			ft.setRate(c, p.Ctrl.Rate)
			if e.rateSeen != nil && !e.rateSeen[p.Ctrl.Flow] {
				e.rateSeen[p.Ctrl.Flow] = true
				e.rateLatencies = append(e.rateLatencies, e.sim.Now()-e.records[c.recordIdx].Start)
			}
		}
	}
}

// packetDropped lets the owning connection react to a lost data packet.
func (e *Engine) packetDropped(p *sim.Packet, _ topology.LinkID) {
	if p.Kind != sim.Data {
		return
	}
	if c, ok := e.conns[p.Flow]; ok {
		c.handleLoss(p)
	}
}

// senderFinished is called when a connection has every byte acknowledged.
func (e *Engine) senderFinished(c *conn) {
	if e.cfg.Scheme == Flowtune {
		e.notifyFlowletEnd(c)
	}
}

// ---------------------------------------------------------------------------
// Flowtune allocator endpoint

// setupAllocator builds the allocator endpoint and its control paths. The
// allocator host stays part of the simulated fabric either way; with an
// external backend the computation happens in the daemon instead of in
// process. The in-process allocator is the one server.New builds — a
// one-block ParallelAllocator, run on the caller alone — so a simulation
// measures the allocator flowtuned serves.
func (e *Engine) setupAllocator() error {
	if _, ok := e.topo.AllocatorNode(); !ok {
		return fmt.Errorf("transport: Flowtune requires a topology with an allocator host")
	}
	if e.cfg.TrackRateLatency {
		e.rateSeen = make(map[int64]bool)
	}
	if e.cfg.ExternalAllocator != nil {
		e.backend = e.cfg.ExternalAllocator
	} else {
		alloc, err := core.NewParallelAllocator(core.ParallelConfig{
			Topology:  e.topo,
			Blocks:    1,
			Gamma:     allocatorGamma,
			Headroom:  allocatorThreshold,
			Normalize: true,
		})
		if err != nil {
			return err
		}
		e.alloc = alloc
		e.backend = &inprocBackend{alloc: alloc}
	}
	e.ctrlToAlloc = make(map[int][]int32)
	e.ctrlFromAlloc = make(map[int][]int32)
	for srv := 0; srv < e.topo.NumServers(); srv++ {
		// Spread servers statically across the allocator's uplinks.
		up, err := e.topo.PathToAllocator(srv, srv)
		if err != nil {
			return err
		}
		down, err := e.topo.PathFromAllocator(srv, srv)
		if err != nil {
			return err
		}
		e.ctrlToAlloc[srv] = pathToInt32(up)
		e.ctrlFromAlloc[srv] = pathToInt32(down)
	}
	e.net.RegisterAllocatorHost(e.allocatorReceive)
	return nil
}

// WrapBackend replaces the allocator backend with wrap(current backend).
// This is the seam the fault-injection layer uses: the wrapper sees every
// FlowletStart/FlowletEnd/Step exactly where the fabric-terminated control
// plane does, regardless of whether the inner backend is the in-process
// allocator, a daemon client, or a sharded-cluster client. It must be called
// before Run and only for the Flowtune scheme.
func (e *Engine) WrapBackend(wrap func(AllocatorBackend) AllocatorBackend) error {
	if e.backend == nil {
		return fmt.Errorf("transport: WrapBackend requires the Flowtune scheme")
	}
	if e.allocRunning {
		return fmt.Errorf("transport: WrapBackend must be called before Run")
	}
	e.backend = wrap(e.backend)
	return nil
}

// RateLatencies returns the flowlet-start→rate-arrival latency samples in
// seconds of simulated time, one per flowlet that received at least one rate
// update, in rate-arrival order (only populated when TrackRateLatency is
// set).
func (e *Engine) RateLatencies() []float64 { return e.rateLatencies }

// FailAllocator simulates an allocator failure: notifications arriving at the
// allocator are dropped, no iterations run and no updates are sent; endpoints
// keep their last allocated rates.
func (e *Engine) FailAllocator() { e.allocFailed = true }

// RecoverAllocator restores a failed allocator. Its learned prices were kept,
// so allocations resume close to where they left off.
func (e *Engine) RecoverAllocator() { e.allocFailed = false }

// Err returns the first fatal control-plane error of the run (a broken
// connection to an external allocator daemon), or nil.
func (e *Engine) Err() error { return e.backendErr }

// notifyFlowletStart sends a flowlet-start control message to the allocator.
func (e *Engine) notifyFlowletStart(c *conn) {
	e.sendControl(c.src, sim.AllocatorDst, e.ctrlToAlloc[c.src], &sim.ControlInfo{
		Type: sim.CtrlFlowletStart,
		Flow: c.id,
		Src:  c.src,
		Dst:  c.dst,
		Size: c.size,
	}, core.FlowletStartBytes)
}

// notifyFlowletEnd sends a flowlet-end control message to the allocator.
func (e *Engine) notifyFlowletEnd(c *conn) {
	e.sendControl(c.src, sim.AllocatorDst, e.ctrlToAlloc[c.src], &sim.ControlInfo{
		Type: sim.CtrlFlowletEnd,
		Flow: c.id,
	}, core.FlowletEndBytes)
}

// sendControl injects a control packet onto a path.
func (e *Engine) sendControl(src, dst int, path []int32, info *sim.ControlInfo, payload int) {
	p := &sim.Packet{
		Flow:         -int64(info.Flow) - 1, // control traffic has its own flow space
		Kind:         sim.Control,
		Src:          src,
		Dst:          dst,
		PayloadBytes: payload,
		WireBytes:    payload + sim.HeaderBytes,
		Path:         path,
		Ctrl:         info,
	}
	e.controlBytes += int64(p.WireBytes)
	e.net.Send(p)
}

// allocatorReceive handles control packets arriving at the allocator host.
func (e *Engine) allocatorReceive(p *sim.Packet) {
	if p.Kind != sim.Control || p.Ctrl == nil || e.backend == nil || e.allocFailed || e.backendErr != nil {
		return
	}
	id := core.FlowID(p.Ctrl.Flow)
	switch p.Ctrl.Type {
	case sim.CtrlFlowletStart:
		// Ignore duplicate registrations defensively.
		if _, dup := e.senders.GetOrPut(id, int32(p.Ctrl.Src)); !dup {
			if err := startFlowlet(e.backend, id, p.Ctrl.Src, p.Ctrl.Dst, 1, p.Ctrl.Size); err != nil {
				e.senders.Delete(id)
			}
		}
	case sim.CtrlFlowletEnd:
		if _, ok := e.senders.Take(id); ok {
			_ = e.backend.FlowletEnd(id)
		}
	}
}

// allocatorTick runs one allocator iteration and ships the resulting rate
// updates to their senders as control packets through the fabric, skipping
// updates for flows the engine no longer holds.
func (e *Engine) allocatorTick() {
	if e.backend != nil && !e.allocFailed && e.backendErr == nil {
		updates, err := e.backend.Step()
		if err != nil {
			// A broken daemon connection is fatal for the run; record
			// it and stop ticking so Err surfaces the cause.
			e.backendErr = err
			return
		}
		for _, u := range updates {
			src, ok := e.senders.Get(u.Flow)
			if !ok {
				continue
			}
			e.sendControl(sim.AllocatorDst, int(src), e.ctrlFromAlloc[int(src)], &sim.ControlInfo{
				Type: sim.CtrlRateUpdate,
				Flow: int64(u.Flow),
				Rate: u.Rate,
			}, core.RateUpdateBytes)
		}
	}
	if e.sim.Now() < e.cfg.Horizon {
		e.sim.Schedule(AllocatorPeriod, e.allocatorTick)
	}
}

// pathToInt32 converts a topology path into the packet representation.
func pathToInt32(p topology.Path) []int32 {
	out := make([]int32, len(p))
	for i, l := range p {
		out[i] = int32(l)
	}
	return out
}
