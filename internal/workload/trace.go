package workload

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// ArrivalKind selects the arrival process of a Trace.
type ArrivalKind int

const (
	// ArrivalPoisson is the open-loop process of the paper's evaluation:
	// flowlets arrive as a Poisson stream whose rate is set so the offered
	// bytes equal Load × aggregate server capacity, regardless of how fast
	// the network drains them.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalClosedLoop keeps a fixed number of outstanding flowlets per
	// server: a worker issues its next flowlet ThinkTime seconds after the
	// previous one completes. The offered load adapts to network speed, so
	// a closed-loop trace needs completion feedback via Trace.Complete.
	ArrivalClosedLoop
)

// String returns the arrival-process name used by the scenario CLI.
func (a ArrivalKind) String() string {
	switch a {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalClosedLoop:
		return "closedloop"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(a))
	}
}

// TraceConfig configures a Trace: a deterministic, seeded stream of flowlets
// combining a size distribution, an arrival process, and a traffic pattern.
type TraceConfig struct {
	// Pattern selects how endpoints are chosen (default PatternUniform).
	Pattern PatternKind
	// Arrival selects the arrival process (default ArrivalPoisson).
	Arrival ArrivalKind
	// Kind selects a built-in size distribution; ignored when Dist is set.
	Kind Kind
	// Dist overrides the size distribution, e.g. one parsed from a CDF
	// file with ParseCDF or LoadCDFFile.
	Dist SizeDist
	// NumServers is the number of servers traffic is spread across.
	NumServers int
	// ServerLinkCapacity is the capacity of each server link in bits/s.
	ServerLinkCapacity float64
	// Load is the open-loop offered load in (0, 1]: the Poisson rate is
	// set so offered bytes equal Load × NumServers × ServerLinkCapacity.
	// Ignored by closed-loop traces.
	Load float64
	// Seed seeds the deterministic random source. Identical configurations
	// produce identical flowlet streams.
	Seed int64
	// IncastFanIn is the number of concurrent sources per incast burst
	// (default 16). Only used by PatternIncast.
	IncastFanIn int
	// IncastTarget, when positive, pins every incast burst to that victim
	// server; the default (0 or negative) rotates the victim round-robin
	// across servers so load stays balanced.
	IncastTarget int
	// Concurrency is the number of outstanding flowlets per server under
	// ArrivalClosedLoop (default 1).
	Concurrency int
	// ThinkTime is the closed-loop delay in seconds between a flowlet's
	// completion and the worker's next arrival (default 0).
	ThinkTime float64
}

// withDefaults fills unset fields and validates the configuration.
func (c TraceConfig) withDefaults() (TraceConfig, error) {
	if c.NumServers < 2 {
		return c, fmt.Errorf("workload: need at least 2 servers, got %d", c.NumServers)
	}
	if c.Dist == nil {
		c.Dist = NewSizeDist(c.Kind)
	}
	if c.Pattern == PatternIncast {
		if c.IncastFanIn == 0 {
			c.IncastFanIn = 16
		}
		if c.IncastFanIn < 1 || c.IncastFanIn > c.NumServers-1 {
			return c, fmt.Errorf("workload: IncastFanIn must be in [1,%d], got %d", c.NumServers-1, c.IncastFanIn)
		}
		if c.IncastTarget >= c.NumServers {
			return c, fmt.Errorf("workload: IncastTarget %d out of range (have %d servers)", c.IncastTarget, c.NumServers)
		}
		if c.IncastTarget == 0 {
			c.IncastTarget = -1
		}
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if c.Concurrency < 0 {
		return c, fmt.Errorf("workload: Concurrency must be positive, got %d", c.Concurrency)
	}
	if c.ThinkTime < 0 {
		return c, fmt.Errorf("workload: ThinkTime must be non-negative, got %g", c.ThinkTime)
	}
	switch c.Arrival {
	case ArrivalPoisson:
		if c.Load <= 0 || c.Load > 1 {
			return c, fmt.Errorf("workload: Load must be in (0,1], got %g", c.Load)
		}
		if c.ServerLinkCapacity <= 0 {
			return c, fmt.Errorf("workload: ServerLinkCapacity must be positive, got %g", c.ServerLinkCapacity)
		}
	case ArrivalClosedLoop:
		if c.Pattern == PatternIncast {
			return c, fmt.Errorf("workload: closed-loop incast is not supported; use ArrivalPoisson")
		}
	default:
		return c, fmt.Errorf("workload: unknown arrival kind %d", int(c.Arrival))
	}
	return c, nil
}

// pendingFlow is one scheduled closed-loop arrival.
type pendingFlow struct {
	at     float64
	worker int
}

// pendingHeap orders pending arrivals by time (worker index breaks ties so
// the stream is deterministic).
type pendingHeap []pendingFlow

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].worker < h[j].worker
}
func (h pendingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x interface{}) { *h = append(*h, x.(pendingFlow)) }
func (h *pendingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Trace is a deterministic flowlet stream: a size distribution, an arrival
// process, and a traffic pattern driven by one seeded RNG. Open-loop traces
// are infinite; closed-loop traces emit new arrivals only as completions are
// reported via Complete.
type Trace struct {
	cfg    TraceConfig
	rng    *rand.Rand
	picker pairPicker

	// Open-loop state.
	burstRate float64 // burst arrivals per second (a burst is 1 flowlet, or FanIn for incast)
	nextAt    float64
	burst     []Flowlet // generated flowlets not yet handed out
	victim    int       // next incast victim for rotating targets

	// Closed-loop state.
	pending pendingHeap
	ownerOf map[int64]int // flow ID -> worker

	count int64
}

// NewTrace creates a flowlet trace.
func NewTrace(cfg TraceConfig) (*Trace, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Trace{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	switch cfg.Pattern {
	case PatternUniform, PatternIncast:
		t.picker = uniformPicker{n: cfg.NumServers}
	case PatternPermutation:
		t.picker = newPermutationPicker(cfg.NumServers, t.rng)
	case PatternShuffle:
		t.picker = &shufflePicker{n: cfg.NumServers}
	default:
		return nil, fmt.Errorf("workload: unknown pattern kind %d", int(cfg.Pattern))
	}
	switch cfg.Arrival {
	case ArrivalPoisson:
		byteRate := cfg.Load * cfg.ServerLinkCapacity * float64(cfg.NumServers) / 8
		flowRate := byteRate / cfg.Dist.Mean()
		fanIn := 1
		if cfg.Pattern == PatternIncast {
			fanIn = cfg.IncastFanIn
		}
		t.burstRate = flowRate / float64(fanIn)
		t.nextAt = t.rng.ExpFloat64() / t.burstRate
	case ArrivalClosedLoop:
		t.ownerOf = make(map[int64]int)
		workers := cfg.NumServers * cfg.Concurrency
		for w := 0; w < workers; w++ {
			heap.Push(&t.pending, pendingFlow{at: 0, worker: w})
		}
	}
	return t, nil
}

// Config returns the validated configuration the trace was built from.
func (t *Trace) Config() TraceConfig { return t.cfg }

// Next returns the next flowlet in arrival order. ok is false when the trace
// has no arrival ready: that never happens for open-loop traces, and for
// closed-loop traces it means every worker is waiting on a completion.
func (t *Trace) Next() (f Flowlet, ok bool) {
	if t.cfg.Arrival == ArrivalClosedLoop {
		if len(t.pending) == 0 {
			return Flowlet{}, false
		}
		p := heap.Pop(&t.pending).(pendingFlow)
		src := p.worker % t.cfg.NumServers
		f = Flowlet{
			ID:        t.count,
			Arrival:   p.at,
			Src:       src,
			Dst:       t.picker.destFor(t.rng, src),
			SizeBytes: t.cfg.Dist.Sample(t.rng),
		}
		t.count++
		t.ownerOf[f.ID] = p.worker
		return f, true
	}
	if len(t.burst) == 0 {
		t.generateBurst()
	}
	f = t.burst[0]
	t.burst = t.burst[1:]
	return f, true
}

// generateBurst produces the flowlets of the next open-loop arrival event:
// one flowlet for most patterns, FanIn flowlets for incast.
func (t *Trace) generateBurst() {
	at := t.nextAt
	t.nextAt += t.rng.ExpFloat64() / t.burstRate
	if t.cfg.Pattern != PatternIncast {
		src, dst := t.picker.next(t.rng)
		t.burst = append(t.burst, Flowlet{
			ID:        t.count,
			Arrival:   at,
			Src:       src,
			Dst:       dst,
			SizeBytes: t.cfg.Dist.Sample(t.rng),
		})
		t.count++
		return
	}
	victim := t.cfg.IncastTarget
	if victim < 0 {
		victim = t.victim
		t.victim = (t.victim + 1) % t.cfg.NumServers
	}
	for _, src := range incastSources(t.rng, t.cfg.NumServers, t.cfg.IncastFanIn, victim) {
		t.burst = append(t.burst, Flowlet{
			ID:        t.count,
			Arrival:   at,
			Src:       src,
			Dst:       victim,
			SizeBytes: t.cfg.Dist.Sample(t.rng),
		})
		t.count++
	}
}

// Complete reports that a flowlet finished at the given time. For closed-loop
// traces this schedules the owning worker's next arrival at at + ThinkTime;
// for open-loop traces it is a no-op.
func (t *Trace) Complete(id int64, at float64) {
	if t.cfg.Arrival != ArrivalClosedLoop {
		return
	}
	w, ok := t.ownerOf[id]
	if !ok {
		return
	}
	delete(t.ownerOf, id)
	heap.Push(&t.pending, pendingFlow{at: at + t.cfg.ThinkTime, worker: w})
}

// NextBefore returns the next flowlet if it arrives strictly before the
// horizon.
func (t *Trace) NextBefore(horizon float64) (Flowlet, bool) {
	if t.cfg.Arrival == ArrivalClosedLoop {
		if len(t.pending) == 0 || t.pending[0].at >= horizon {
			return Flowlet{}, false
		}
		return t.Next()
	}
	if len(t.burst) == 0 && t.nextAt >= horizon {
		return Flowlet{}, false
	}
	f, ok := t.Next()
	if !ok || f.Arrival >= horizon {
		// Flowlets of one incast burst share an arrival time, so a burst
		// straddling the horizon cannot happen; this is purely defensive.
		return Flowlet{}, false
	}
	return f, ok
}

// GenerateUntil returns all flowlets arriving before the horizon. For
// closed-loop traces this returns only the initial window of arrivals that
// exist without completion feedback.
func (t *Trace) GenerateUntil(horizon float64) []Flowlet {
	var out []Flowlet
	for {
		f, ok := t.NextBefore(horizon)
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// ---------------------------------------------------------------------------
// Churn streams

// EventKind distinguishes flowlet churn events.
type EventKind uint8

const (
	// FlowletAdd announces a flowlet to the allocator.
	FlowletAdd EventKind = iota
	// FlowletRemove retires a flowlet from the allocator.
	FlowletRemove
)

// String returns "add" or "remove".
func (k EventKind) String() string {
	if k == FlowletAdd {
		return "add"
	}
	return "remove"
}

// Event is one add/remove churn event presented to an allocator.
type Event struct {
	// At is the event time in seconds.
	At float64
	// Kind says whether the flowlet starts or ends.
	Kind EventKind
	// Flow is the flowlet being added or removed.
	Flow Flowlet
}

// ChurnEvents expands a flowlet trace into a time-ordered add/remove event
// stream, with each flowlet removed hold(f) seconds after it arrives. It is
// the input for allocator-only churn runs, where no packet simulation exists
// to decide completions. Ties are broken add-before-remove, then by flow ID,
// so the stream is deterministic.
func ChurnEvents(flows []Flowlet, hold func(Flowlet) float64) []Event {
	events := make([]Event, 0, 2*len(flows))
	for _, f := range flows {
		events = append(events, Event{At: f.Arrival, Kind: FlowletAdd, Flow: f})
		events = append(events, Event{At: f.Arrival + hold(f), Kind: FlowletRemove, Flow: f})
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Flow.ID < b.Flow.ID
	})
	return events
}

// IdealHold returns a hold-time model for ChurnEvents: each flowlet stays
// active for its ideal serialization time at linkRate bits/s, multiplied by
// slowdown (use slowdown > 1 to emulate a loaded network).
func IdealHold(linkRate, slowdown float64) func(Flowlet) float64 {
	if slowdown <= 0 {
		slowdown = 1
	}
	return func(f Flowlet) float64 {
		return slowdown * float64(f.SizeBytes*8) / linkRate
	}
}
