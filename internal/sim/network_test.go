package sim

import (
	"testing"

	"repro/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newTestNetwork(t *testing.T, qf QueueFactory) (*Simulator, *Network, *topology.Topology) {
	t.Helper()
	topo := testTopo(t)
	s := New()
	n, err := NewNetwork(s, topo, qf)
	if err != nil {
		t.Fatal(err)
	}
	return s, n, topo
}

// makeDataPacket builds a packet routed from server src to server dst.
func makeDataPacket(t *testing.T, topo *topology.Topology, flow int64, src, dst, payload int) *Packet {
	t.Helper()
	route, err := topo.Route(src, dst, int(flow))
	if err != nil {
		t.Fatal(err)
	}
	path := make([]int32, len(route))
	for i, l := range route {
		path[i] = int32(l)
	}
	return &Packet{
		Flow: flow, Kind: Data, Src: src, Dst: dst,
		PayloadBytes: payload, WireBytes: payload + HeaderBytes,
		Path: path,
	}
}

func TestNewNetworkValidation(t *testing.T) {
	topo := testTopo(t)
	if _, err := NewNetwork(nil, topo, nil); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := NewNetwork(New(), nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
	s := New()
	n, err := NewNetwork(s, topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Links()) != topo.NumLinks() {
		t.Errorf("network has %d links, topology has %d", len(n.Links()), topo.NumLinks())
	}
}

func TestPacketDeliveryIntraRack(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	var delivered *Packet
	var deliveredAt Time
	n.RegisterHost(1, func(p *Packet) { delivered = p; deliveredAt = s.Now() })
	p := makeDataPacket(t, topo, 1, 0, 1, 1000)
	n.Send(p)
	s.Run(1)
	if delivered == nil {
		t.Fatal("packet not delivered")
	}
	if delivered != p {
		t.Error("wrong packet delivered")
	}
	// Delivery time = 2 links × (serialization + propagation).
	cfg := topo.Config()
	txTime := float64((1000+HeaderBytes)*8) / cfg.LinkCapacity
	want := 2 * (txTime + cfg.LinkDelay)
	if deliveredAt < want*0.99 || deliveredAt > want*1.5 {
		t.Errorf("delivery completed at %g, want about %g", deliveredAt, want)
	}
}

func TestPacketDeliveryCrossRack(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	delivered := false
	n.RegisterHost(20, func(p *Packet) { delivered = true })
	n.Send(makeDataPacket(t, topo, 7, 0, 20, 1500))
	s.Run(1)
	if !delivered {
		t.Fatal("cross-rack packet not delivered")
	}
}

func TestAllocatorDelivery(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	got := 0
	n.RegisterAllocatorHost(func(p *Packet) { got++ })
	alloc, _ := topo.AllocatorNode()
	tor := topo.ToRForRack(0)
	spine := topo.SpineSwitch(0)
	up1, _ := topo.LinkBetween(topo.Server(0), tor)
	up2, _ := topo.LinkBetween(tor, spine)
	up3, _ := topo.LinkBetween(spine, alloc)
	p := &Packet{Kind: Control, Src: 0, Dst: AllocatorDst, WireBytes: 64,
		Path: []int32{int32(up1), int32(up2), int32(up3)}}
	n.Send(p)
	s.Run(1)
	if got != 1 {
		t.Fatalf("allocator received %d packets, want 1", got)
	}
}

func TestLinkSerializationOrder(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	var order []int64
	n.RegisterHost(1, func(p *Packet) { order = append(order, p.Flow) })
	// Two packets sent back-to-back share the first link; they must arrive
	// in order and be serialized (second arrives one tx-time later).
	n.Send(makeDataPacket(t, topo, 1, 0, 1, 1500))
	n.Send(makeDataPacket(t, topo, 2, 0, 1, 1500))
	s.Run(1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("arrival order %v", order)
	}
}

func TestDropsAreCountedAndReported(t *testing.T) {
	// Tiny queues force drops under a burst.
	s, n, topo := newTestNetwork(t, func(l topology.Link) Queue { return NewDropTailQueue(4000) })
	var notified int
	n.OnDrop(func(p *Packet, link topology.LinkID) { notified++ })
	received := 0
	n.RegisterHost(1, func(p *Packet) { received++ })
	for i := 0; i < 20; i++ {
		n.Send(makeDataPacket(t, topo, int64(i), 0, 1, 1500))
	}
	s.Run(1)
	if notified == 0 {
		t.Fatal("expected drops with a 4 KB buffer and a 20-packet burst")
	}
	if n.TotalDroppedBytes() == 0 {
		t.Error("TotalDroppedBytes not counted")
	}
	if received+notified != 20 {
		t.Errorf("received %d + dropped %d != 20", received, notified)
	}
	if n.TotalSentBytes() == 0 {
		t.Error("TotalSentBytes not counted")
	}
}

func TestQueueSamplingAndPathDelays(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	n.RegisterHost(1, func(p *Packet) {})
	n.StartQueueSampling(100e-6, 1e-3)
	// Keep the first link busy so samples see a queue.
	for i := 0; i < 200; i++ {
		n.Send(makeDataPacket(t, topo, int64(i), 0, 1, 1500))
	}
	s.Run(2e-3)
	route, _ := topo.Route(0, 1, 0)
	link := n.Link(route[0])
	if len(link.Samples()) == 0 {
		t.Fatal("no queue samples collected")
	}
	path := []int32{int32(route[0]), int32(route[1])}
	delays := n.PathQueueDelays(path)
	if len(delays) == 0 {
		t.Fatal("no path delays")
	}
	positive := false
	for _, d := range delays {
		if d < 0 {
			t.Fatal("negative queueing delay")
		}
		if d > 0 {
			positive = true
		}
	}
	if !positive {
		t.Error("expected at least one positive queueing-delay sample under a 200-packet burst")
	}
	if n.PathQueueDelays(nil) != nil {
		t.Error("empty path should yield nil delays")
	}
}

func TestSendWithEmptyPathDeliversLocally(t *testing.T) {
	s, n, _ := newTestNetwork(t, nil)
	delivered := false
	n.RegisterHost(3, func(p *Packet) { delivered = true })
	n.Send(&Packet{Kind: Data, Dst: 3})
	s.Run(1)
	if !delivered {
		t.Error("empty-path packet not delivered to its destination host")
	}
}

func TestLinkStats(t *testing.T) {
	s, n, topo := newTestNetwork(t, nil)
	n.RegisterHost(1, func(p *Packet) {})
	p := makeDataPacket(t, topo, 1, 0, 1, 1000)
	n.Send(p)
	s.Run(1)
	route, _ := topo.Route(0, 1, 1)
	stats := n.Link(route[0]).Stats()
	if stats.PacketsSent != 1 || stats.BytesSent != int64(p.WireBytes) {
		t.Errorf("link stats wrong: %+v", stats)
	}
}

// TotalSentBytes returns the number of bytes transmitted network-wide.
func (n *Network) TotalSentBytes() int64 {
	var total int64
	for _, l := range n.links {
		total += l.stats.BytesSent
	}
	return total
}
