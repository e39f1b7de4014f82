package flowtune_test

import (
	"math/rand"
	"net"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
)

// maxResidentBytesPerFlow bounds TestResidentBytesPerFlow's figure, about 10%
// above the 356 B measured on linux/amd64 with go1.24.
const maxResidentBytesPerFlow = 392

// TestResidentBytesPerFlow pins what a live flow costs in memory, daemon and
// client together, in the repository benchmark's churn-20k set-up: a daemon
// serving one AllocClient over loopback TCP on the 1 024-host leaf-spine,
// 20 000 resident flowlets, then 100 Steps of 2 000 ends + 2 000 starts. The
// heap the set-up leaves live after a collection, over the flows live, may not
// exceed maxResidentBytesPerFlow.
func TestResidentBytesPerFlow(t *testing.T) {
	const (
		resident = 20000
		churn    = 2000
		steps    = 100
	)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	topo, err := topology.NewTwoTier(topology.Config{Racks: 32, ServersPerRack: 32, Spines: 16, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Topology: topo, UpdateThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) // returns when srv.Close closes the listener
	client, err := transport.DialAlloc(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(1))
	n := topo.NumServers()
	next := core.FlowID(0)
	start := func() {
		src, dst := rng.Intn(n), rng.Intn(n-1)
		if dst >= src {
			dst++
		}
		if err := client.FlowletStartSized(next, src, dst, 1, 1<<20); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < resident {
		start()
	}
	if _, err := client.Step(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		for k := 0; k < churn; k++ {
			if err := client.FlowletEnd(next - resident); err != nil {
				t.Fatal(err)
			}
			start()
		}
		if _, err := client.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.NumFlows(); got != resident {
		t.Fatalf("daemon holds %d flows; want %d", got, resident)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	perFlow := float64(ms.HeapAlloc-base) / resident
	t.Logf("%.0f heap bytes per live flow (%.2f MB for %d flows)", perFlow, float64(ms.HeapAlloc-base)/1e6, resident)
	if perFlow > maxResidentBytesPerFlow {
		t.Errorf("%.0f heap bytes per live flow; the bound is %d", perFlow, maxResidentBytesPerFlow)
	}
	runtime.KeepAlive(srv)
	runtime.KeepAlive(client)
}
