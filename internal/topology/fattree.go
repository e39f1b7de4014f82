package topology

import "fmt"

// FatTreeConfig describes a three-tier k-ary fat-tree fabric (Al-Fares et
// al., SIGCOMM 2008): k pods, each with k/2 edge (ToR) switches of k/2
// servers and k/2 aggregation switches, joined by (k/2)² core switches. All
// fabric links share one capacity, giving full bisection bandwidth.
type FatTreeConfig struct {
	// K is the switch radix; it must be even and at least 2. The fabric
	// has k³/4 servers.
	K int
	// LinkCapacity is the capacity of every link in bits per second.
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay of each link in seconds.
	LinkDelay float64
	// HostDelay is the processing delay at each host in seconds.
	HostDelay float64
	// WithAllocator attaches an allocator host to every core switch,
	// mirroring the two-tier setup where it hangs off every spine.
	WithAllocator bool
	// AllocatorLinkCapacity is the capacity of each allocator uplink in
	// bits per second. Defaults to 4x LinkCapacity when zero.
	AllocatorLinkCapacity float64
}

// Validate checks the fat-tree configuration.
func (c FatTreeConfig) Validate() error {
	switch {
	case c.K < 2 || c.K%2 != 0:
		return fmt.Errorf("topology: fat-tree K must be even and >= 2, got %d", c.K)
	case c.LinkCapacity <= 0:
		return fmt.Errorf("topology: LinkCapacity must be positive, got %g", c.LinkCapacity)
	case c.LinkDelay < 0:
		return fmt.Errorf("topology: LinkDelay must be non-negative, got %g", c.LinkDelay)
	case c.HostDelay < 0:
		return fmt.Errorf("topology: HostDelay must be non-negative, got %g", c.HostDelay)
	}
	return nil
}

// fatTreeInfo is the pod structure of a fat-tree Topology.
type fatTreeInfo struct {
	cfg FatTreeConfig
	// k/2: edge switches per pod, aggregation switches per pod, servers
	// per edge, and cores per aggregation position.
	half int
}

// podOfRack returns the pod of a rack (edge switch) index.
func (ft *fatTreeInfo) podOfRack(rack int) int { return rack / ft.half }

// NewFatTree builds a three-tier k-ary fat-tree.
func NewFatTree(cfg FatTreeConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AllocatorLinkCapacity == 0 {
		cfg.AllocatorLinkCapacity = 4 * cfg.LinkCapacity
	}
	half := cfg.K / 2

	t := &Topology{
		cfg: Config{
			Racks:                 cfg.K * half,
			ServersPerRack:        half,
			Spines:                cfg.K * half,
			LinkCapacity:          cfg.LinkCapacity,
			LinkDelay:             cfg.LinkDelay,
			HostDelay:             cfg.HostDelay,
			WithAllocator:         cfg.WithAllocator,
			AllocatorLinkCapacity: cfg.AllocatorLinkCapacity,
		},
		fatTree:     &fatTreeInfo{cfg: cfg, half: half},
		allocatorID: -1,
		linkByPair:  make(map[[2]NodeID]LinkID),
	}

	addNode := func(kind NodeKind, rack, index int) NodeID {
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, Node{ID: id, Kind: kind, Rack: rack, Index: index})
		return id
	}
	addPair := func(lo, hi NodeID, capacity float64) {
		up := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: up, Src: lo, Dst: hi, Capacity: capacity, Delay: cfg.LinkDelay, Up: true})
		t.linkByPair[[2]NodeID{lo, hi}] = up
		down := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: down, Src: hi, Dst: lo, Capacity: capacity, Delay: cfg.LinkDelay, Up: false})
		t.linkByPair[[2]NodeID{hi, lo}] = down
	}

	// Edge switches and their servers, pod by pod.
	for pod := 0; pod < cfg.K; pod++ {
		for e := 0; e < half; e++ {
			rack := pod*half + e
			edge := addNode(ToR, rack, rack)
			t.torIDs = append(t.torIDs, edge)
			for s := 0; s < half; s++ {
				srv := addNode(Server, rack, rack*half+s)
				t.serverIDs = append(t.serverIDs, srv)
				addPair(srv, edge, cfg.LinkCapacity)
			}
		}
	}

	// Aggregation switches: every edge of a pod connects to every
	// aggregation switch of the same pod.
	for pod := 0; pod < cfg.K; pod++ {
		for a := 0; a < half; a++ {
			agg := addNode(Spine, -1, pod*half+a)
			t.spineIDs = append(t.spineIDs, agg)
			for e := 0; e < half; e++ {
				addPair(t.torIDs[pod*half+e], agg, cfg.LinkCapacity)
			}
		}
	}

	// Core switches: core c connects to the aggregation switch at position
	// c/(k/2) of every pod.
	for c := 0; c < half*half; c++ {
		core := addNode(Core, -1, c)
		t.coreIDs = append(t.coreIDs, core)
		pos := c / half
		for pod := 0; pod < cfg.K; pod++ {
			addPair(t.spineIDs[pod*half+pos], core, cfg.LinkCapacity)
		}
	}

	if cfg.WithAllocator {
		alloc := addNode(Allocator, -1, 0)
		t.allocatorID = alloc
		for _, core := range t.coreIDs {
			addPair(alloc, core, cfg.AllocatorLinkCapacity)
		}
	}

	t.buildRouteTables()
	return t, nil
}

// NumCores returns the number of core switches (0 for two-tier fabrics).
func (t *Topology) NumCores() int { return len(t.coreIDs) }

// mod returns i modulo n, mapped into [0, n).
func mod(i, n int) int { return ((i % n) + n) % n }

// mustLink returns the link between two directly connected nodes, panicking
// if none exists (a construction invariant, not a runtime condition).
func (t *Topology) mustLink(src, dst NodeID) LinkID {
	id, ok := t.linkByPair[[2]NodeID{src, dst}]
	if !ok {
		panic(fmt.Sprintf("topology: no link between node %d and node %d", src, dst))
	}
	return id
}

// PathToAllocator returns the control path from a server to the allocator
// host, spreading servers across the allocator's uplinks with the
// caller-supplied choice (use the server index for a static spread). The
// allocator hangs off the spines in a two-tier fabric and off the cores in a
// fat-tree.
func (t *Topology) PathToAllocator(server, choice int) (Path, error) {
	up, _, err := t.allocatorPaths(server, choice)
	return up, err
}

// PathFromAllocator returns the control path from the allocator host down to
// a server; it is the reverse of PathToAllocator for the same choice.
func (t *Topology) PathFromAllocator(server, choice int) (Path, error) {
	_, down, err := t.allocatorPaths(server, choice)
	return down, err
}

// allocatorPaths computes both directions of a server's control path.
func (t *Topology) allocatorPaths(server, choice int) (up, down Path, err error) {
	if t.allocatorID < 0 {
		return nil, nil, fmt.Errorf("topology: fabric has no allocator host")
	}
	if server < 0 || server >= len(t.serverIDs) {
		return nil, nil, fmt.Errorf("topology: server index %d out of range (have %d servers)", server, len(t.serverIDs))
	}
	srv := t.serverIDs[server]
	rack := t.RackOfServer(server)
	tor := t.torIDs[rack]
	var via []NodeID // switches between the ToR and the allocator
	if ft := t.fatTree; ft != nil {
		a := mod(choice, ft.half)
		agg := t.spineIDs[ft.podOfRack(rack)*ft.half+a]
		core := t.coreIDs[a*ft.half+mod(choice/ft.half, ft.half)]
		via = []NodeID{agg, core}
	} else {
		via = []NodeID{t.spineIDs[mod(choice, len(t.spineIDs))]}
	}
	up = Path{t.mustLink(srv, tor)}
	prev := tor
	for _, sw := range via {
		up = append(up, t.mustLink(prev, sw))
		prev = sw
	}
	up = append(up, t.mustLink(prev, t.allocatorID))
	down = make(Path, 0, len(up))
	down = append(down, t.mustLink(t.allocatorID, prev))
	for i := len(via) - 2; i >= 0; i-- {
		down = append(down, t.mustLink(via[i+1], via[i]))
	}
	if len(via) > 0 {
		down = append(down, t.mustLink(via[0], tor))
	}
	down = append(down, t.mustLink(tor, srv))
	return up, down, nil
}
