package topology

import "testing"

func newTestFatTree(t *testing.T, k int) *Topology {
	t.Helper()
	topo, err := NewFatTree(FatTreeConfig{
		K:             k,
		LinkCapacity:  10e9,
		LinkDelay:     1.5e-6,
		HostDelay:     2e-6,
		WithAllocator: true,
	})
	if err != nil {
		t.Fatalf("NewFatTree(k=%d): %v", k, err)
	}
	return topo
}

func TestFatTreeCounts(t *testing.T) {
	topo := newTestFatTree(t, 4)
	if got, want := topo.NumServers(), 16; got != want {
		t.Errorf("servers = %d, want %d", got, want)
	}
	if got, want := topo.NumRacks(), 8; got != want {
		t.Errorf("edge switches = %d, want %d", got, want)
	}
	if got, want := len(topo.spineIDs), 8; got != want {
		t.Errorf("aggregation switches = %d, want %d", got, want)
	}
	if got, want := topo.NumCores(), 4; got != want {
		t.Errorf("core switches = %d, want %d", got, want)
	}
	// 16 server links + 16 edge-agg links + 16 agg-core links, each
	// bidirectional, plus 4 allocator uplink pairs.
	if got, want := topo.NumLinks(), 2*(16+16+16)+2*4; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	if _, ok := topo.AllocatorNode(); !ok {
		t.Error("allocator host missing")
	}
}

// checkPath verifies that a path is link-contiguous from server src to server
// dst.
func checkPath(t *testing.T, topo *Topology, p Path, from, to NodeID) {
	t.Helper()
	if len(p) == 0 {
		t.Fatal("empty path")
	}
	at := from
	for i, lid := range p {
		l := topo.Link(lid)
		if l.Src != at {
			t.Fatalf("hop %d: link starts at node %d, want %d", i, l.Src, at)
		}
		at = l.Dst
	}
	if at != to {
		t.Fatalf("path ends at node %d, want %d", at, to)
	}
}

func TestFatTreeRoutes(t *testing.T) {
	topo := newTestFatTree(t, 4)
	cases := []struct {
		src, dst, hops int
	}{
		{0, 1, 2},  // same edge switch
		{0, 2, 4},  // same pod, different edge
		{0, 15, 6}, // different pod
	}
	for _, c := range cases {
		for choice := 0; choice < 5; choice++ {
			p, err := topo.Route(c.src, c.dst, choice)
			if err != nil {
				t.Fatalf("Route(%d,%d,%d): %v", c.src, c.dst, choice, err)
			}
			if len(p) != c.hops {
				t.Errorf("Route(%d,%d,%d) has %d hops, want %d", c.src, c.dst, choice, len(p), c.hops)
			}
			if got := topo.HopCount(c.src, c.dst); got != c.hops {
				t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
			}
			checkPath(t, topo, p, topo.Server(c.src), topo.Server(c.dst))
		}
	}
}

func TestFatTreeRouteDiversity(t *testing.T) {
	// A k=4 fat-tree has 4 distinct cross-pod paths (2 aggs × 2 cores per
	// agg); distinct ECMP choices must exercise all of them.
	topo := newTestFatTree(t, 4)
	paths := make(map[string]bool)
	for choice := 0; choice < 4; choice++ {
		p, err := topo.Route(0, 15, choice)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, l := range p {
			key += string(rune(l)) // LinkIDs are small; any injective encoding works
		}
		paths[key] = true
	}
	if len(paths) != 4 {
		t.Errorf("found %d distinct cross-pod paths, want 4", len(paths))
	}
}

func TestFatTreeAllocatorPaths(t *testing.T) {
	topo := newTestFatTree(t, 4)
	alloc, _ := topo.AllocatorNode()
	for srv := 0; srv < topo.NumServers(); srv++ {
		up, err := topo.PathToAllocator(srv, srv)
		if err != nil {
			t.Fatalf("PathToAllocator(%d): %v", srv, err)
		}
		checkPath(t, topo, up, topo.Server(srv), alloc)
		down, err := topo.PathFromAllocator(srv, srv)
		if err != nil {
			t.Fatalf("PathFromAllocator(%d): %v", srv, err)
		}
		checkPath(t, topo, down, alloc, topo.Server(srv))
	}
}

func TestTwoTierAllocatorPaths(t *testing.T) {
	topo, err := NewTwoTier(DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	alloc, _ := topo.AllocatorNode()
	for srv := 0; srv < topo.NumServers(); srv += 7 {
		up, err := topo.PathToAllocator(srv, srv)
		if err != nil {
			t.Fatalf("PathToAllocator(%d): %v", srv, err)
		}
		checkPath(t, topo, up, topo.Server(srv), alloc)
		down, err := topo.PathFromAllocator(srv, srv)
		if err != nil {
			t.Fatalf("PathFromAllocator(%d): %v", srv, err)
		}
		checkPath(t, topo, down, alloc, topo.Server(srv))
	}
}

func TestFatTreeValidation(t *testing.T) {
	bad := []FatTreeConfig{
		{K: 3, LinkCapacity: 10e9},
		{K: 0, LinkCapacity: 10e9},
		{K: 4, LinkCapacity: 0},
		{K: 4, LinkCapacity: 10e9, LinkDelay: -1},
	}
	for _, cfg := range bad {
		if _, err := NewFatTree(cfg); err == nil {
			t.Errorf("NewFatTree accepted invalid config %+v", cfg)
		}
	}
}

func TestFatTreeRejectsBlockPartition(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBlockPartition(topo, 2); err == nil {
		t.Fatal("NewBlockPartition accepted a fat-tree topology; the core layer would be unpriced")
	}
}

func TestFatTreeNoAllocator(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.AllocatorNode(); ok {
		t.Error("unexpected allocator host")
	}
	if _, err := topo.PathToAllocator(0, 0); err == nil {
		t.Error("PathToAllocator succeeded without an allocator host")
	}
}
