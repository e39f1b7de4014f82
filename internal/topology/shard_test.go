package topology

import (
	"slices"
	"testing"
)

// OwnedLinks returns every link shard s owns (upward and downward).
func (m *ShardMap) OwnedLinks(s int) []LinkID {
	return append(slices.Clone(m.part.UpwardLinkBlock(s)), m.part.DownwardLinkBlock(s)...)
}

// shardTestTopo builds a small two-tier fabric with an allocator host so the
// shard map has to classify allocator uplinks too.
func shardTestTopo(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewTwoTier(Config{
		Racks:          4,
		ServersPerRack: 4,
		Spines:         2,
		LinkCapacity:   10e9,
		WithAllocator:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestShardMapOwnership(t *testing.T) {
	topo := shardTestTopo(t)
	m, err := NewShardMap(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", m.NumShards())
	}

	// Servers split by rack: racks 0-1 → shard 0, racks 2-3 → shard 1.
	for srv := 0; srv < topo.NumServers(); srv++ {
		want := topo.RackOfServer(srv) / 2
		if got := m.ShardOfServer(srv); got != want {
			t.Fatalf("ShardOfServer(%d) = %d, want %d", srv, got, want)
		}
	}
	if m.ShardOfFlow(0, topo.NumServers()-1) != 0 {
		t.Fatal("ShardOfFlow must follow the source server")
	}

	// Every link is owned by exactly one shard, except allocator uplinks.
	for _, l := range topo.Links() {
		owner := m.OwnerOfLink(l.ID)
		srcKind := topo.Node(l.Src).Kind
		dstKind := topo.Node(l.Dst).Kind
		if srcKind == Allocator || dstKind == Allocator {
			if owner != -1 {
				t.Fatalf("allocator link %d owned by shard %d", l.ID, owner)
			}
			continue
		}
		if owner < 0 || owner >= 2 {
			t.Fatalf("fabric link %d has no owner (got %d)", l.ID, owner)
		}
	}

	// Boundary links are exactly the downward links of the shard's racks,
	// and every shard-owned link appears in OwnedLinks exactly once.
	seen := make(map[LinkID]int)
	for s := 0; s < 2; s++ {
		for _, l := range m.BoundaryLinks(s) {
			link := topo.Link(l)
			if link.Up {
				t.Fatalf("shard %d boundary link %d is an upward link", s, l)
			}
			if m.OwnerOfLink(l) != s {
				t.Fatalf("shard %d boundary link %d owned by %d", s, l, m.OwnerOfLink(l))
			}
		}
		for _, l := range m.OwnedLinks(s) {
			seen[l]++
		}
	}
	for l, n := range seen {
		if n != 1 {
			t.Fatalf("link %d owned %d times", l, n)
		}
	}

	// Routes of a flow stay within (source-shard upward ∪ dest-shard
	// downward) links — the invariant the price exchange is built on.
	for _, pair := range [][2]int{{0, 5}, {0, 13}, {14, 2}, {7, 9}} {
		src, dst := pair[0], pair[1]
		path, err := topo.Route(src, dst, src+dst)
		if err != nil {
			t.Fatal(err)
		}
		srcShard, dstShard := m.ShardOfServer(src), m.ShardOfServer(dst)
		for _, l := range path {
			owner := m.OwnerOfLink(l)
			if topo.Link(l).Up {
				if owner != srcShard {
					t.Fatalf("up link %d of %d→%d owned by %d, want source shard %d", l, src, dst, owner, srcShard)
				}
			} else if owner != dstShard {
				t.Fatalf("down link %d of %d→%d owned by %d, want dest shard %d", l, src, dst, owner, dstShard)
			}
		}
	}
}

func TestShardMapErrors(t *testing.T) {
	topo := shardTestTopo(t)
	if _, err := NewShardMap(topo, 3); err == nil {
		t.Fatal("3 shards over 4 racks must be rejected")
	}
	if _, err := NewShardMap(topo, 0); err == nil {
		t.Fatal("0 shards must be rejected")
	}
	ft, err := NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardMap(ft, 2); err == nil {
		t.Fatal("fat-tree sharding must be rejected (agg↔core links would be unowned)")
	}
}

func TestRouteCacheMatchesRoute(t *testing.T) {
	for name, build := range map[string]func() (*Topology, error){
		"two-tier": func() (*Topology, error) { return NewTwoTier(DefaultSimConfig()) },
		"fat-tree": func() (*Topology, error) {
			return NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9, WithAllocator: true})
		},
	} {
		t.Run(name, func(t *testing.T) {
			topo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rc := NewRouteCache(topo)
			n := topo.NumServers()
			// Exercise choices far beyond the ECMP fan-out (flow IDs) and
			// repeat each to hit the cached path the second time.
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < 200; i++ {
					src := (i * 13) % n
					dst := (i*7 + 5) % n
					if src == dst {
						continue
					}
					choice := i * 97
					want, err := topo.Route(src, dst, choice)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rc.Route(src, dst, choice)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("pass %d: route %d→%d/%d: got %v, want %v", pass, src, dst, choice, got, want)
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("pass %d: route %d→%d/%d: got %v, want %v", pass, src, dst, choice, got, want)
						}
					}
				}
			}
			// The cache key space is bounded by the ECMP fan-out, not the
			// choice values fed in.
			if max := n * n * topo.routeChoices(); rc.Len() > max {
				t.Fatalf("cache holds %d paths, more than %d possible", rc.Len(), max)
			}
			// Errors pass through uncached.
			if _, err := rc.Route(0, 0, 1); err == nil {
				t.Fatal("same-server route must fail")
			}
			if _, err := rc.Route(-1, 1, 1); err == nil {
				t.Fatal("out-of-range server must fail")
			}
			// Negative choices bypass the cache but still route.
			want, err := topo.Route(1, 2, -5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rc.Route(1, 2, -5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("negative choice: got %v, want %v", got, want)
			}
		})
	}
}
