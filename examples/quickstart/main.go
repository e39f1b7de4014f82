// Quickstart: allocate rates for a handful of flowlets with the Flowtune
// allocator and watch the allocation react when flowlets start and end.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	flowtune "repro"
)

func main() {
	log.SetFlags(0)

	// The paper's simulation fabric: 9 racks × 16 servers, 10 Gbit/s links.
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
	if err != nil {
		log.Fatal(err)
	}

	// Three flowlets all destined to server 17: two from other racks, one
	// from the same rack. They share server 17's 10 Gbit/s downlink, so the
	// proportional-fair allocation is ~3.3 Gbit/s each.
	mustStart := func(id flowtune.FlowID, src, dst int) {
		if err := alloc.FlowletStart(id, src, dst, 1); err != nil {
			log.Fatal(err)
		}
	}
	mustStart(1, 0, 17)
	mustStart(2, 40, 17)
	mustStart(3, 100, 17)

	// Iterate returns the rate updates the endpoints would be sent: only the
	// rates that moved by more than the 1% notification threshold.
	iterations, updates := 0, 0
	iterate := func(n int) {
		for i := 0; i < n; i++ {
			updates += len(alloc.Iterate())
			iterations++
		}
	}
	iterate(100)
	fmt.Println("three flowlets sharing server 17's downlink:")
	for id := flowtune.FlowID(1); id <= 3; id++ {
		fmt.Printf("  flow %d: %.2f Gbit/s\n", id, alloc.Rate(id)/1e9)
	}

	// Flow 3 ends; the allocator re-converges within a few iterations and
	// the remaining two flows split the link.
	if err := alloc.FlowletEnd(3); err != nil {
		log.Fatal(err)
	}
	iterate(100)
	fmt.Println("after flow 3 ends:")
	for id := flowtune.FlowID(1); id <= 2; id++ {
		fmt.Printf("  flow %d: %.2f Gbit/s\n", id, alloc.Rate(id)/1e9)
	}

	// A heavier, weighted flowlet arrives (weight 2 ≈ twice the share).
	if err := alloc.FlowletStart(4, 64, 17, 2); err != nil {
		log.Fatal(err)
	}
	iterate(100)
	fmt.Println("after a weight-2 flowlet arrives:")
	for _, id := range []flowtune.FlowID{1, 2, 4} {
		fmt.Printf("  flow %d: %.2f Gbit/s\n", id, alloc.Rate(id)/1e9)
	}

	fmt.Printf("allocator ran %d iterations and sent %d rate updates\n", iterations, updates)
}
