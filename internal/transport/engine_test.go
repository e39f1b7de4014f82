package transport

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// newTestEngine creates an engine on the default fabric.
func newTestEngine(t *testing.T, scheme Scheme, horizon float64) *Engine {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Scheme: scheme, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineDefaults(t *testing.T) {
	eng := newTestEngine(t, Flowtune, 1e-3)
	if eng.Topology().NumServers() != 144 {
		t.Errorf("default topology has %d servers, want 144", eng.Topology().NumServers())
	}
	if eng.Allocator() == nil {
		t.Error("Flowtune engine must have an allocator")
	}
	dctcp := newTestEngine(t, DCTCP, 1e-3)
	if dctcp.Allocator() != nil {
		t.Error("non-Flowtune engine must not have an allocator")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		Flowtune: "Flowtune", DCTCP: "DCTCP", PFabric: "pFabric",
		SFQCoDel: "sfqCoDel", XCP: "XCP", TCP: "TCP",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if len(AllSchemes()) != 5 {
		t.Errorf("AllSchemes should list the five compared schemes")
	}
}

func TestQueueFactoryPerScheme(t *testing.T) {
	link := topology.Link{Capacity: 10e9}
	if _, ok := QueueFactory(DCTCP)(link).(*sim.DropTailQueue); !ok {
		t.Error("DCTCP should use an ECN drop-tail queue")
	}
	if _, ok := QueueFactory(PFabric)(link).(*sim.PFabricQueue); !ok {
		t.Error("pFabric should use a priority queue")
	}
	if _, ok := QueueFactory(SFQCoDel)(link).(*sim.SFQCoDelQueue); !ok {
		t.Error("sfqCoDel should use an SFQ-CoDel queue")
	}
	if _, ok := QueueFactory(XCP)(link).(*sim.XCPQueue); !ok {
		t.Error("XCP should use an XCP queue")
	}
	if _, ok := QueueFactory(Flowtune)(link).(*sim.DropTailQueue); !ok {
		t.Error("Flowtune should use a plain drop-tail queue")
	}
}

// TestSingleFlowCompletesEachScheme: a single short flow on an idle network
// must complete, with an FCT close to the ideal, under every scheme.
func TestSingleFlowCompletesEachScheme(t *testing.T) {
	for _, scheme := range append(AllSchemes(), TCP) {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			eng := newTestEngine(t, scheme, 5e-3)
			f := workload.Flowlet{ID: 1, Arrival: 0, Src: 0, Dst: 20, SizeBytes: 15000}
			if err := eng.AddFlowlet(f); err != nil {
				t.Fatal(err)
			}
			eng.Run(5e-3)
			rec := eng.Records()[0]
			if !rec.Finished() {
				t.Fatalf("%s: flow did not finish", scheme)
			}
			if rec.NormalizedFCT() > 20 {
				t.Errorf("%s: normalized FCT %.1f is implausibly high on an idle network", scheme, rec.NormalizedFCT())
			}
			if eng.DroppedBytes() != 0 {
				t.Errorf("%s: drops on an idle network", scheme)
			}
		})
	}
}

func TestAddFlowletValidation(t *testing.T) {
	eng := newTestEngine(t, DCTCP, 1e-3)
	f := workload.Flowlet{ID: 1, Src: 0, Dst: 1, SizeBytes: 1000}
	if err := eng.AddFlowlet(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(f); err == nil {
		t.Error("duplicate flowlet accepted")
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 2, Src: 0, Dst: 0, SizeBytes: 1}); err == nil {
		t.Error("flowlet with identical endpoints accepted")
	}
}

// TestFlowtuneSharesBottleneckFairly: two long flows into one receiver get
// roughly equal rates under the allocator.
func TestFlowtuneSharesBottleneckFairly(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Scheme: Flowtune, Horizon: 4e-3, TrackThroughput: true})
	if err != nil {
		t.Fatal(err)
	}
	const size = 10 << 20
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 16, Dst: 0, SizeBytes: size}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 2, Arrival: 0, Src: 32, Dst: 0, SizeBytes: size}); err != nil {
		t.Fatal(err)
	}
	eng.Run(4e-3)
	// Compare received throughput over the measurement window.
	t1 := eng.FlowThroughput(1).Rates()
	t2 := eng.FlowThroughput(2).Rates()
	mean := func(v []float64) float64 {
		if len(v) <= 10 {
			return metrics.Mean(v)
		}
		return metrics.Mean(v[10:]) // skip the pre-allocation transient
	}
	m1, m2 := mean(t1), mean(t2)
	if m1 == 0 || m2 == 0 {
		t.Fatal("a flow received nothing")
	}
	if math.Abs(m1-m2)/math.Max(m1, m2) > 0.2 {
		t.Errorf("unfair split: %.2f vs %.2f Gbit/s", m1/1e9, m2/1e9)
	}
	// Together they should use most of the 10 Gbit/s bottleneck.
	if m1+m2 < 7e9 {
		t.Errorf("bottleneck under-utilized: %.2f Gbit/s total", (m1+m2)/1e9)
	}
	if m1+m2 > 10.1e9 {
		t.Errorf("bottleneck over-subscribed: %.2f Gbit/s total", (m1+m2)/1e9)
	}
}

// TestFlowtuneAllocatorReceivesNotifications checks the control loop through
// what the engine observes: the start notification registered the flowlet
// (a rate came back for it), and the end notification retired it.
func TestFlowtuneAllocatorReceivesNotifications(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Scheme: Flowtune, Horizon: 3e-3, TrackRateLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 0, Dst: 20, SizeBytes: 100000}); err != nil {
		t.Fatal(err)
	}
	eng.Run(3e-3)
	if n := len(eng.RateLatencies()); n != 1 {
		t.Errorf("%d flowlets heard a rate back, want 1", n)
	}
	if n := eng.Allocator().NumFlows(); n != 0 || eng.senders.Len() != 0 {
		t.Errorf("allocator still holds %d flowlets (%d registered), want 0: the flow finished", n, eng.senders.Len())
	}
	if eng.ControlBytes() == 0 {
		t.Error("control traffic should have been injected into the fabric")
	}
	if !eng.Records()[0].Finished() {
		t.Error("flow did not finish")
	}
}

func TestStopFlow(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Scheme: Flowtune, Horizon: 2e-3, TrackThroughput: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 16, Dst: 0, SizeBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	eng.Sim().At(1e-3, func() { eng.StopFlow(1) })
	eng.Run(2e-3)
	rates := eng.FlowThroughput(1).Rates()
	// Some throughput before the stop, none near the end.
	sawTraffic := false
	for i, r := range rates {
		at := float64(i) * 100e-6
		if at < 0.9e-3 && r > 0 {
			sawTraffic = true
		}
		if at > 1.5e-3 && r > 0 {
			t.Errorf("traffic at %.2f ms after StopFlow at 1 ms", at*1e3)
		}
	}
	if !sawTraffic {
		t.Error("flow never sent before being stopped")
	}
	// Stopping twice or stopping an unknown flow must not panic.
	eng.StopFlow(1)
	eng.StopFlow(99)
}

// TestAllocatorFailureFallback fails the allocator before a flowlet starts:
// the allocator must see no notification and send no rate, and the endpoint
// must still finish on its own.
func TestAllocatorFailureFallback(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Scheme: Flowtune, Horizon: 4e-3, TrackRateLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 16, Dst: 0, SizeBytes: 2 << 20}); err != nil {
		t.Fatal(err)
	}
	// Fail the allocator before the flow starts: the endpoint must still
	// make progress (pre-allocation window behaviour) and finish.
	eng.FailAllocator()
	eng.Run(4e-3)
	if !eng.Records()[0].Finished() {
		t.Error("flow did not finish with a failed allocator")
	}
	if n := len(eng.RateLatencies()); n != 0 {
		t.Errorf("failed allocator sent a rate to %d flowlets", n)
	}
	if n := eng.Allocator().NumFlows(); n != 0 || eng.senders.Len() != 0 {
		t.Errorf("failed allocator registered %d flowlets (%d in the engine)", n, eng.senders.Len())
	}
	eng.RecoverAllocator()
}

// TestDCTCPKeepsQueuesShorterThanTCP: the ECN-based scheme should hold the
// bottleneck queue near its marking threshold, well below what loss-based TCP
// builds.
func TestDCTCPKeepsQueuesShorterThanTCP(t *testing.T) {
	maxQueue := func(scheme Scheme) int {
		eng, err := NewEngine(EngineConfig{Scheme: scheme, Horizon: 4e-3, QueueSamplePeriod: 50e-6})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := eng.AddFlowlet(workload.Flowlet{ID: int64(i), Arrival: 0, Src: 16 * (i + 1), Dst: 0, SizeBytes: 8 << 20}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run(4e-3)
		// Bottleneck is the receiver's downlink.
		topo := eng.Topology()
		down, _ := topo.LinkBetween(topo.ToRForRack(0), topo.Server(0))
		max := 0
		for _, s := range eng.Network().Link(down).Samples() {
			if s.Bytes > max {
				max = s.Bytes
			}
		}
		return max
	}
	dctcp := maxQueue(DCTCP)
	tcp := maxQueue(TCP)
	if dctcp == 0 {
		t.Fatal("DCTCP built no queue at all under 4-flow incast")
	}
	if dctcp >= tcp {
		t.Errorf("DCTCP max queue (%d bytes) should be smaller than TCP's (%d bytes)", dctcp, tcp)
	}
}

// TestPFabricFavorsShortFlows: with a long flow occupying the bottleneck, a
// short flow's completion should be barely affected under pFabric.
func TestPFabricFavorsShortFlows(t *testing.T) {
	eng := newTestEngine(t, PFabric, 5e-3)
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 16, Dst: 0, SizeBytes: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFlowlet(workload.Flowlet{ID: 2, Arrival: 1e-3, Src: 32, Dst: 0, SizeBytes: 3000}); err != nil {
		t.Fatal(err)
	}
	eng.Run(5e-3)
	short := eng.Records()[1]
	if !short.Finished() {
		t.Fatal("short flow did not finish under pFabric")
	}
	if short.NormalizedFCT() > 5 {
		t.Errorf("short flow normalized FCT %.1f; pFabric should prioritize it", short.NormalizedFCT())
	}
}

// TestXCPConservativeRampUp: a single long XCP flow should take noticeably
// longer to reach link rate than a DCTCP flow (XCP hands out spare capacity
// gradually).
func TestXCPConservativeRampUp(t *testing.T) {
	timeToFinish := func(scheme Scheme) float64 {
		eng, err := NewEngine(EngineConfig{Scheme: scheme, Horizon: 20e-3})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 16, Dst: 0, SizeBytes: 2 << 20}); err != nil {
			t.Fatal(err)
		}
		eng.Run(20e-3)
		rec := eng.Records()[0]
		if !rec.Finished() {
			t.Fatalf("%s: 2 MB flow did not finish in 20 ms", scheme)
		}
		return rec.FCT()
	}
	xcp := timeToFinish(XCP)
	dctcp := timeToFinish(DCTCP)
	if xcp <= dctcp {
		t.Errorf("XCP (%.2f ms) should be slower to ramp up than DCTCP (%.2f ms)", xcp*1e3, dctcp*1e3)
	}
}

// TestRetransmissionRecoversFromDrops: under a severe incast with tiny
// pFabric buffers, drops happen but flows still finish.
// lossyIncast runs a 12-flow pFabric incast whose small buffers drop enough
// to exercise both the loss callback and the RTO watchdog.
func lossyIncast(t *testing.T) *Engine {
	t.Helper()
	eng := newTestEngine(t, PFabric, 30e-3)
	for i := 0; i < 12; i++ {
		if err := eng.AddFlowlet(workload.Flowlet{
			ID: int64(i), Arrival: 0, Src: 16 + i, Dst: 0, SizeBytes: 150_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(30e-3)
	return eng
}

func TestRetransmissionRecoversFromDrops(t *testing.T) {
	eng := lossyIncast(t)
	if eng.DroppedBytes() == 0 {
		t.Error("expected drops under a 12-flow incast with pFabric's small buffers")
	}
	for i, rec := range eng.Records() {
		if !rec.Finished() {
			t.Errorf("flow %d did not finish despite retransmissions", i)
		}
	}
}

// TestRetransmissionDeterministic runs the lossy incast twice: the RTO
// watchdog's retransmissions must not depend on map order, so the flow
// records must match bit for bit.
func TestRetransmissionDeterministic(t *testing.T) {
	a, b := lossyIncast(t).Records(), lossyIncast(t).Records()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical lossy runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestAchievedRates(t *testing.T) {
	eng := newTestEngine(t, DCTCP, 5e-3)
	if err := eng.AddFlowlet(workload.Flowlet{ID: 1, Arrival: 0, Src: 0, Dst: 20, SizeBytes: 30000}); err != nil {
		t.Fatal(err)
	}
	eng.Run(5e-3)
	rates := eng.AchievedRates()
	if len(rates) != 1 || rates[0] <= 0 {
		t.Errorf("AchievedRates = %v", rates)
	}
}
