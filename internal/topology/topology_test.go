package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTopo(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := NewTwoTier(cfg)
	if err != nil {
		t.Fatalf("NewTwoTier(%+v): %v", cfg, err)
	}
	return topo
}

func TestDefaultSimConfig(t *testing.T) {
	cfg := DefaultSimConfig()
	if cfg.Racks != 9 || cfg.ServersPerRack != 16 || cfg.Spines != 4 {
		t.Fatalf("unexpected default sim config: %+v", cfg)
	}
	if cfg.LinkCapacity != 10e9 {
		t.Fatalf("default link capacity = %g, want 10e9", cfg.LinkCapacity)
	}
	topo := mustTopo(t, cfg)
	if topo.NumServers() != 144 {
		t.Fatalf("NumServers = %d, want 144", topo.NumServers())
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultSimConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero racks", func(c *Config) { c.Racks = 0 }},
		{"negative racks", func(c *Config) { c.Racks = -1 }},
		{"zero servers", func(c *Config) { c.ServersPerRack = 0 }},
		{"zero spines", func(c *Config) { c.Spines = 0 }},
		{"zero capacity", func(c *Config) { c.LinkCapacity = 0 }},
		{"negative capacity", func(c *Config) { c.LinkCapacity = -1 }},
		{"negative delay", func(c *Config) { c.LinkDelay = -1e-6 }},
		{"negative host delay", func(c *Config) { c.HostDelay = -1e-6 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid config %+v", cfg)
			}
			if _, err := NewTwoTier(cfg); err == nil {
				t.Fatalf("NewTwoTier accepted invalid config %+v", cfg)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("Validate rejected the default config: %v", err)
	}
}

func TestTopologyCounts(t *testing.T) {
	cfg := Config{Racks: 4, ServersPerRack: 8, Spines: 2, LinkCapacity: 10e9, LinkDelay: 1e-6}
	topo := mustTopo(t, cfg)
	if got, want := topo.NumServers(), 32; got != want {
		t.Errorf("NumServers = %d, want %d", got, want)
	}
	if got, want := topo.NumRacks(), 4; got != want {
		t.Errorf("NumRacks = %d, want %d", got, want)
	}
	if got, want := len(topo.spineIDs), 2; got != want {
		t.Errorf("NumSpines = %d, want %d", got, want)
	}
	// Links: 2 per server (up/down) + 2 per (rack,spine) pair.
	wantLinks := 2*32 + 2*4*2
	if got := topo.NumLinks(); got != wantLinks {
		t.Errorf("NumLinks = %d, want %d", got, wantLinks)
	}
	// No allocator requested.
	if _, ok := topo.AllocatorNode(); ok {
		t.Error("AllocatorNode present although WithAllocator=false")
	}
}

func TestAllocatorNodeLinks(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	alloc, ok := topo.AllocatorNode()
	if !ok {
		t.Fatal("default sim config should include an allocator host")
	}
	for s := 0; s < len(topo.spineIDs); s++ {
		spine := topo.SpineSwitch(s)
		if _, ok := topo.LinkBetween(alloc, spine); !ok {
			t.Errorf("missing allocator->spine%d link", s)
		}
		if _, ok := topo.LinkBetween(spine, alloc); !ok {
			t.Errorf("missing spine%d->allocator link", s)
		}
	}
}

func TestRouteIntraRack(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	path, err := topo.Route(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("intra-rack path length = %d, want 2", len(path))
	}
	up := topo.Link(path[0])
	down := topo.Link(path[1])
	if !up.Up || down.Up {
		t.Errorf("intra-rack path direction wrong: up=%v down=%v", up.Up, down.Up)
	}
	if up.Src != topo.Server(0) {
		t.Errorf("path does not start at the source server")
	}
	if down.Dst != topo.Server(1) {
		t.Errorf("path does not end at the destination server")
	}
}

func TestRouteCrossRack(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	path, err := topo.Route(0, 17, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("cross-rack path length = %d, want 4", len(path))
	}
	// The path must be link-connected: each link's Dst is the next link's Src.
	for i := 0; i+1 < len(path); i++ {
		if topo.Link(path[i]).Dst != topo.Link(path[i+1]).Src {
			t.Errorf("path not connected at hop %d", i)
		}
	}
	// Spine choice must respect the modulo.
	spine := topo.Link(path[1]).Dst
	if spine != topo.SpineSwitch(3%len(topo.spineIDs)) {
		t.Errorf("spine choice not honored")
	}
}

func TestRouteErrors(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	if _, err := topo.Route(0, 0, 0); err == nil {
		t.Error("Route(0,0) should fail")
	}
	if _, err := topo.Route(-1, 5, 0); err == nil {
		t.Error("Route(-1,5) should fail")
	}
	if _, err := topo.Route(0, topo.NumServers(), 0); err == nil {
		t.Error("Route with out-of-range destination should fail")
	}
}

func TestRouteNegativeSpineChoice(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	if _, err := topo.Route(0, 17, -7); err != nil {
		t.Fatalf("negative spine choice should be accepted (hash values can be negative): %v", err)
	}
}

func TestHopCountAndBaseRTT(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	if got := topo.HopCount(0, 1); got != 2 {
		t.Errorf("intra-rack HopCount = %d, want 2", got)
	}
	if got := topo.HopCount(0, 20); got != 4 {
		t.Errorf("cross-rack HopCount = %d, want 4", got)
	}
	// Paper: 14 µs 2-hop RTT, 22 µs 4-hop RTT... with 1.5 µs links and 2 µs
	// hosts our model gives 2*(2*1.5+2)=10 µs and 2*(4*1.5+2)=16 µs; check
	// the relative structure rather than the absolute paper numbers.
	rtt2 := topo.BaseRTT(0, 1)
	rtt4 := topo.BaseRTT(0, 20)
	if rtt4 <= rtt2 {
		t.Errorf("4-hop RTT (%g) should exceed 2-hop RTT (%g)", rtt4, rtt2)
	}
	if rtt2 <= 0 {
		t.Errorf("RTT must be positive, got %g", rtt2)
	}
}

func TestCapacities(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	caps := topo.Capacities()
	if len(caps) != topo.NumLinks() {
		t.Fatalf("Capacities length = %d, want %d", len(caps), topo.NumLinks())
	}
	for i, c := range caps {
		if c <= 0 {
			t.Fatalf("link %d has non-positive capacity %g", i, c)
		}
	}
	// Server links must match the configured capacity.
	up, _ := topo.LinkBetween(topo.Server(0), topo.ToRForRack(0))
	if caps[up] != topo.Config().LinkCapacity {
		t.Errorf("server uplink capacity = %g, want %g", caps[up], topo.Config().LinkCapacity)
	}
}

func TestRackOfServer(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	per := topo.Config().ServersPerRack
	for _, tc := range []struct{ server, rack int }{{0, 0}, {per - 1, 0}, {per, 1}, {per*3 + 2, 3}} {
		if got := topo.RackOfServer(tc.server); got != tc.rack {
			t.Errorf("RackOfServer(%d) = %d, want %d", tc.server, got, tc.rack)
		}
	}
}

// TestRoutePropertyConnected checks, for random server pairs, that routes are
// connected, start at the source, end at the destination, and only go up then
// down.
func TestRoutePropertyConnected(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	prop := func(a, b uint16, choice int8) bool {
		src := int(a) % topo.NumServers()
		dst := int(b) % topo.NumServers()
		if src == dst {
			return true
		}
		path, err := topo.Route(src, dst, int(choice))
		if err != nil {
			return false
		}
		if topo.Link(path[0]).Src != topo.Server(src) {
			return false
		}
		if topo.Link(path[len(path)-1]).Dst != topo.Server(dst) {
			return false
		}
		seenDown := false
		for i, lid := range path {
			l := topo.Link(lid)
			if i > 0 && topo.Link(path[i-1]).Dst != l.Src {
				return false
			}
			if !l.Up {
				seenDown = true
			} else if seenDown {
				return false // up link after a down link: not a valley-free path
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLinkDirectionConsistency(t *testing.T) {
	topo := mustTopo(t, DefaultSimConfig())
	for _, l := range topo.Links() {
		src := topo.Node(l.Src)
		dst := topo.Node(l.Dst)
		switch {
		case src.Kind == Server && dst.Kind == ToR, src.Kind == ToR && dst.Kind == Spine:
			if !l.Up {
				t.Errorf("link %d (%v->%v) should be marked Up", l.ID, src.Kind, dst.Kind)
			}
		case src.Kind == ToR && dst.Kind == Server, src.Kind == Spine && dst.Kind == ToR:
			if l.Up {
				t.Errorf("link %d (%v->%v) should be marked Down", l.ID, src.Kind, dst.Kind)
			}
		}
	}
}
