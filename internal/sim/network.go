package sim

import (
	"fmt"

	"repro/internal/topology"
)

// LinkStats accumulates per-link counters used by the evaluation.
type LinkStats struct {
	// PacketsSent and BytesSent count transmitted packets/bytes.
	PacketsSent int64
	BytesSent   int64
	// PacketsDropped and BytesDropped count drops at this link's queue.
	PacketsDropped int64
	BytesDropped   int64
}

// Link is a unidirectional link: a queue feeding a serializing transmitter
// followed by a fixed propagation delay.
type Link struct {
	id    topology.LinkID
	rate  float64
	delay Time
	queue Queue

	sim     *Simulator
	net     *Network
	busy    bool
	stats   LinkStats
	samples []QueueSample
}

// QueueSample is one periodic observation of a link's queue, used to compute
// p99 queueing delay as in Figure 9.
type QueueSample struct {
	At    Time
	Bytes int
	// Delay is the queueing delay a newly arriving packet would see.
	Delay Time
}

// Stats returns the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Samples returns the periodic queue samples collected so far.
func (l *Link) Samples() []QueueSample { return l.samples }

// Queue returns the link's queue discipline.
func (l *Link) Queue() Queue { return l.queue }

// Rate returns the link rate in bits per second.
func (l *Link) Rate() float64 { return l.rate }

// send enqueues a packet and starts transmission if the link is idle.
func (l *Link) send(p *Packet) {
	l.queue.Enqueue(p, l.sim.Now())
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext dequeues and serializes the next packet.
func (l *Link) transmitNext() {
	p, ok := l.queue.Dequeue(l.sim.Now())
	if !ok {
		l.busy = false
		return
	}
	l.busy = true
	txTime := Time(p.WireBytes*8) / l.rate
	l.stats.PacketsSent++
	l.stats.BytesSent += int64(p.WireBytes)
	l.sim.Schedule(txTime, func() {
		// Serialization finished: launch the packet onto the wire and
		// immediately start the next one.
		l.sim.Schedule(l.delay, func() { l.net.arrive(p) })
		l.transmitNext()
	})
}

// Network instantiates a topology inside a simulator: one Link per topology
// link, plus host delivery handlers for servers and the allocator.
type Network struct {
	sim  *Simulator
	topo *topology.Topology

	links []*Link

	// handlers[server] receives packets whose Dst is that server;
	// allocatorHandler receives packets destined to the allocator host
	// (Dst == AllocatorDst).
	handlers         map[int]func(*Packet)
	allocatorHandler func(*Packet)

	// dropHandlers are notified of every packet drop (after stats are
	// updated), letting transports model loss detection.
	dropHandlers []func(*Packet, topology.LinkID)

	totalDroppedBytes int64
	totalSentBytes    int64
}

// AllocatorDst is the Dst value identifying the allocator host.
const AllocatorDst = -1

// QueueFactory builds the queue for a given link; schemes install their
// queue discipline (ECN thresholds, pFabric priority queues, sfqCoDel, XCP)
// through it.
type QueueFactory func(link topology.Link) Queue

// NewNetwork builds the simulated network for a topology, creating each
// link's queue with the supplied factory.
func NewNetwork(s *Simulator, topo *topology.Topology, qf QueueFactory) (*Network, error) {
	if s == nil || topo == nil {
		return nil, fmt.Errorf("sim: simulator and topology are required")
	}
	if qf == nil {
		qf = func(l topology.Link) Queue {
			// Default: 256 KB drop-tail buffers.
			return NewDropTailQueue(256 << 10)
		}
	}
	n := &Network{
		sim:      s,
		topo:     topo,
		handlers: make(map[int]func(*Packet)),
	}
	for _, tl := range topo.Links() {
		q := qf(tl)
		link := &Link{
			id:    tl.ID,
			rate:  tl.Capacity,
			delay: tl.Delay,
			queue: q,
			sim:   s,
			net:   n,
		}
		q.SetDropHandler(func(p *Packet) { n.drop(p, link) })
		n.links = append(n.links, link)
	}
	return n, nil
}

// Topology returns the topology the network was built from.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Sim returns the simulator driving the network.
func (n *Network) Sim() *Simulator { return n.sim }

// Link returns the simulated link for a topology link id.
func (n *Network) Link(id topology.LinkID) *Link { return n.links[id] }

// Links returns all simulated links indexed by LinkID.
func (n *Network) Links() []*Link { return n.links }

// SetLinkRate changes a link's transmission rate mid-run. The packet
// currently serializing (if any) finishes at the old rate; every subsequent
// dequeue — and every queue sample — uses the new one, which is exactly how
// a degraded or administratively shaped physical link behaves. Rate must be
// positive (model a dead link as a tiny fraction of its former rate so
// in-flight packets still drain, just impossibly slowly).
func (n *Network) SetLinkRate(id topology.LinkID, rate float64) error {
	if id < 0 || int(id) >= len(n.links) {
		return fmt.Errorf("sim: SetLinkRate link %d out of range (%d links)", id, len(n.links))
	}
	if !(rate > 0) {
		return fmt.Errorf("sim: SetLinkRate link %d: invalid rate %g", id, rate)
	}
	n.links[id].rate = rate
	return nil
}

// RegisterHost installs the delivery handler for a server index.
func (n *Network) RegisterHost(server int, handler func(*Packet)) {
	n.handlers[server] = handler
}

// RegisterAllocatorHost installs the delivery handler for the allocator.
func (n *Network) RegisterAllocatorHost(handler func(*Packet)) {
	n.allocatorHandler = handler
}

// OnDrop registers a callback invoked for every dropped packet.
func (n *Network) OnDrop(fn func(*Packet, topology.LinkID)) {
	n.dropHandlers = append(n.dropHandlers, fn)
}

// Send injects a packet into the network on the first link of its path. The
// caller must have set Path; Hop should be zero.
func (n *Network) Send(p *Packet) {
	if len(p.Path) == 0 {
		// Degenerate case (same-host delivery): deliver immediately.
		n.deliver(p)
		return
	}
	if p.SentAt == 0 {
		p.SentAt = n.sim.Now()
	}
	n.links[p.Path[p.Hop]].send(p)
}

// arrive handles a packet finishing a link's propagation: forward it to the
// next link or deliver it to its destination host.
func (n *Network) arrive(p *Packet) {
	p.Hop++
	if p.IsLast() {
		n.deliver(p)
		return
	}
	n.links[p.Path[p.Hop]].send(p)
}

// deliver hands the packet to its destination's handler.
func (n *Network) deliver(p *Packet) {
	if p.Dst == AllocatorDst {
		if n.allocatorHandler != nil {
			n.allocatorHandler(p)
		}
		return
	}
	if h, ok := n.handlers[p.Dst]; ok {
		h(p)
	}
}

// drop records a packet drop and notifies transports.
func (n *Network) drop(p *Packet, l *Link) {
	l.stats.PacketsDropped++
	l.stats.BytesDropped += int64(p.WireBytes)
	n.totalDroppedBytes += int64(p.WireBytes)
	for _, fn := range n.dropHandlers {
		fn(p, l.id)
	}
}

// TotalDroppedBytes returns the number of bytes dropped network-wide.
func (n *Network) TotalDroppedBytes() int64 { return n.totalDroppedBytes }

// StartQueueSampling samples every link's queue occupancy with the given
// period (the paper samples every 1 ms) until the simulator stops scheduling
// events past the horizon.
func (n *Network) StartQueueSampling(period, horizon Time) {
	var tick func()
	tick = func() {
		now := n.sim.Now()
		for _, l := range n.links {
			bytes := l.queue.Bytes()
			l.samples = append(l.samples, QueueSample{
				At:    now,
				Bytes: bytes,
				Delay: Time(bytes*8) / l.rate,
			})
		}
		if now+period <= horizon {
			n.sim.Schedule(period, tick)
		}
	}
	n.sim.Schedule(period, tick)
}

// PathQueueDelays returns, for every sample instant, the summed queueing
// delay along the path's links — the "network path queueing delay" plotted in
// Figure 9. All links must have been sampled the same number of times.
func (n *Network) PathQueueDelays(path []int32) []Time {
	if len(path) == 0 {
		return nil
	}
	numSamples := len(n.links[path[0]].samples)
	out := make([]Time, numSamples)
	for _, lid := range path {
		s := n.links[lid].samples
		if len(s) < numSamples {
			numSamples = len(s)
			out = out[:numSamples]
		}
		for i := 0; i < numSamples; i++ {
			out[i] += s[i].Delay
		}
	}
	return out
}
