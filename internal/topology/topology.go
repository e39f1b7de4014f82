package topology

import (
	"fmt"
	"sync/atomic"
)

// NodeKind identifies the role of a node in the fabric.
type NodeKind uint8

const (
	// Server is an end host attached to a ToR switch.
	Server NodeKind = iota
	// ToR is a top-of-rack (leaf) switch.
	ToR
	// Spine is a second-tier (aggregation/spine) switch.
	Spine
	// Core is a third-tier core switch (fat-tree fabrics only).
	Core
	// Allocator is the centralized Flowtune allocator host.
	Allocator
)

// String returns a short human-readable name for the node kind.
func (k NodeKind) String() string {
	switch k {
	case Server:
		return "server"
	case ToR:
		return "tor"
	case Spine:
		return "spine"
	case Core:
		return "core"
	case Allocator:
		return "allocator"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// NodeID identifies a node (server, switch, or allocator) in a Topology.
type NodeID int32

// LinkID identifies a unidirectional link in a Topology.
type LinkID int32

// Node is a single device in the fabric.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Rack is the rack index for servers and ToR switches, -1 otherwise.
	Rack int
	// Index is the position of the node within its kind (server index,
	// rack index, or spine index).
	Index int
}

// Link is a unidirectional link between two nodes.
type Link struct {
	ID LinkID
	// Src and Dst are the endpoints of the link.
	Src, Dst NodeID
	// Capacity is in bits per second.
	Capacity float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64
	// Up reports whether the link goes up the topology
	// (server→ToR or ToR→spine).
	Up bool
}

// Topology is a description of a two-tier Clos fabric. The node and link
// structure is immutable after construction; the only mutable piece is the
// ECMP route salt (see SetRouteSalt), which models the fabric re-seeding its
// ECMP hash function.
//
// Construct one with NewTwoTier; the zero value is not usable.
type Topology struct {
	nodes []Node
	links []Link

	cfg Config

	// routeSalt is folded into every ECMP path choice (see Route). It is
	// atomic so fault injection can re-hash a fabric shared with
	// free-running daemons; step-driven runs mutate it only at iteration
	// boundaries, keeping routing deterministic.
	routeSalt atomic.Uint64

	// serverIDs[i] is the NodeID of server i.
	serverIDs []NodeID
	// torIDs[r] is the NodeID of the ToR switch of rack r.
	torIDs []NodeID
	// spineIDs[s] is the NodeID of spine switch s (aggregation switches in
	// a fat-tree).
	spineIDs []NodeID
	// coreIDs[c] is the NodeID of core switch c (fat-tree fabrics only).
	coreIDs []NodeID
	// fatTree holds the pod structure of a three-tier fat-tree, nil for
	// two-tier fabrics.
	fatTree *fatTreeInfo
	// allocatorID is the NodeID of the allocator host, or -1 if absent.
	allocatorID NodeID

	// linkByPair maps (src,dst) to the LinkID connecting them.
	linkByPair map[[2]NodeID]LinkID

	// Dense link tables behind RouteInto, filled once by buildRouteTables so
	// routing is index arithmetic instead of linkByPair lookups. serverUp[i]
	// and serverDown[i] join server i and its ToR. A ToR has torFan uplinks
	// (every spine of a two-tier fabric, the k/2 aggregation switches of its
	// pod in a fat-tree): torUp[r*torFan+j] climbs from rack r to its j-th
	// spine and torDown[r*torFan+j] comes back. In a fat-tree, aggregation
	// switch g (a spineIDs index) reaches its j-th core over aggUp[g*half+j]
	// and is reached from it over aggDown[g*half+j].
	serverUp, serverDown []int32
	torFan               int
	torUp, torDown       []int32
	aggUp, aggDown       []int32
}

// Config describes a two-tier Clos fabric.
type Config struct {
	// Racks is the number of racks (each with one ToR switch).
	Racks int
	// ServersPerRack is the number of servers attached to each ToR.
	ServersPerRack int
	// Spines is the number of spine switches. Every ToR connects to every
	// spine.
	Spines int
	// LinkCapacity is the capacity of every server and fabric link in
	// bits per second (the paper's simulations use 10 Gbit/s; the
	// allocator benchmarks use 40 Gbit/s).
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay of each link in seconds.
	LinkDelay float64
	// HostDelay is the processing delay at each host in seconds. It is
	// recorded for simulator use; it does not create topology links.
	HostDelay float64
	// WithAllocator adds an allocator host connected to every spine
	// switch with a dedicated AllocatorLinkCapacity link, mirroring the
	// paper's setup (40 Gbit/s link to each spine).
	WithAllocator bool
	// AllocatorLinkCapacity is the capacity of each allocator uplink in
	// bits per second. Defaults to 4x LinkCapacity when zero.
	AllocatorLinkCapacity float64
}

// DefaultSimConfig returns the simulation topology used throughout §6.2-§6.5
// of the paper: 4 spine switches, 9 racks of 16 servers, 10 Gbit/s links,
// 1.5 µs link delay and 2 µs host delay.
func DefaultSimConfig() Config {
	return Config{
		Racks:          9,
		ServersPerRack: 16,
		Spines:         4,
		LinkCapacity:   10e9,
		LinkDelay:      1.5e-6,
		HostDelay:      2e-6,
		WithAllocator:  true,
	}
}

// Validate checks the configuration for obvious errors.
func (c Config) Validate() error {
	switch {
	case c.Racks <= 0:
		return fmt.Errorf("topology: Racks must be positive, got %d", c.Racks)
	case c.ServersPerRack <= 0:
		return fmt.Errorf("topology: ServersPerRack must be positive, got %d", c.ServersPerRack)
	case c.Spines <= 0:
		return fmt.Errorf("topology: Spines must be positive, got %d", c.Spines)
	case c.LinkCapacity <= 0:
		return fmt.Errorf("topology: LinkCapacity must be positive, got %g", c.LinkCapacity)
	case c.LinkDelay < 0:
		return fmt.Errorf("topology: LinkDelay must be non-negative, got %g", c.LinkDelay)
	case c.HostDelay < 0:
		return fmt.Errorf("topology: HostDelay must be non-negative, got %g", c.HostDelay)
	}
	return nil
}

// NewTwoTier builds a two-tier full-bisection Clos topology from cfg.
func NewTwoTier(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.AllocatorLinkCapacity == 0 {
		cfg.AllocatorLinkCapacity = 4 * cfg.LinkCapacity
	}

	t := &Topology{
		cfg:         cfg,
		allocatorID: -1,
		linkByPair:  make(map[[2]NodeID]LinkID),
	}

	addNode := func(kind NodeKind, rack, index int) NodeID {
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, Node{ID: id, Kind: kind, Rack: rack, Index: index})
		return id
	}
	addLink := func(src, dst NodeID, capacity, delay float64, up bool) LinkID {
		id := LinkID(len(t.links))
		t.links = append(t.links, Link{ID: id, Src: src, Dst: dst, Capacity: capacity, Delay: delay, Up: up})
		t.linkByPair[[2]NodeID{src, dst}] = id
		return id
	}

	// Servers and ToRs.
	for r := 0; r < cfg.Racks; r++ {
		tor := addNode(ToR, r, r)
		t.torIDs = append(t.torIDs, tor)
		for s := 0; s < cfg.ServersPerRack; s++ {
			srv := addNode(Server, r, r*cfg.ServersPerRack+s)
			t.serverIDs = append(t.serverIDs, srv)
			addLink(srv, tor, cfg.LinkCapacity, cfg.LinkDelay, true)
			addLink(tor, srv, cfg.LinkCapacity, cfg.LinkDelay, false)
		}
	}

	// Spines, fully connected to every ToR.
	for s := 0; s < cfg.Spines; s++ {
		sp := addNode(Spine, -1, s)
		t.spineIDs = append(t.spineIDs, sp)
		for r := 0; r < cfg.Racks; r++ {
			// Full-bisection: each ToR-spine link carries the rack's
			// share of uplink capacity.
			cap := cfg.LinkCapacity * float64(cfg.ServersPerRack) / float64(cfg.Spines)
			addLink(t.torIDs[r], sp, cap, cfg.LinkDelay, true)
			addLink(sp, t.torIDs[r], cap, cfg.LinkDelay, false)
		}
	}

	if cfg.WithAllocator {
		alloc := addNode(Allocator, -1, 0)
		t.allocatorID = alloc
		for _, sp := range t.spineIDs {
			addLink(alloc, sp, cfg.AllocatorLinkCapacity, cfg.LinkDelay, true)
			addLink(sp, alloc, cfg.AllocatorLinkCapacity, cfg.LinkDelay, false)
		}
	}

	t.buildRouteTables()
	return t, nil
}

// buildRouteTables fills the dense link tables from the finished node and
// link structure (both constructors call it last).
func (t *Topology) buildRouteTables() {
	pair := func(lo, hi NodeID) (up, down int32) {
		return int32(t.mustLink(lo, hi)), int32(t.mustLink(hi, lo))
	}
	t.serverUp = make([]int32, len(t.serverIDs))
	t.serverDown = make([]int32, len(t.serverIDs))
	for i, srv := range t.serverIDs {
		t.serverUp[i], t.serverDown[i] = pair(srv, t.torIDs[t.RackOfServer(i)])
	}
	t.torFan = len(t.spineIDs)
	if t.fatTree != nil {
		t.torFan = t.fatTree.half
	}
	t.torUp = make([]int32, len(t.torIDs)*t.torFan)
	t.torDown = make([]int32, len(t.torIDs)*t.torFan)
	for r, tor := range t.torIDs {
		first := 0 // spineIDs index of the ToR's first uplink
		if t.fatTree != nil {
			first = t.fatTree.podOfRack(r) * t.torFan
		}
		for j := 0; j < t.torFan; j++ {
			t.torUp[r*t.torFan+j], t.torDown[r*t.torFan+j] = pair(tor, t.spineIDs[first+j])
		}
	}
	if ft := t.fatTree; ft != nil {
		t.aggUp = make([]int32, len(t.spineIDs)*ft.half)
		t.aggDown = make([]int32, len(t.spineIDs)*ft.half)
		for g, agg := range t.spineIDs {
			for j := 0; j < ft.half; j++ {
				t.aggUp[g*ft.half+j], t.aggDown[g*ft.half+j] = pair(agg, t.coreIDs[g%ft.half*ft.half+j])
			}
		}
	}
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// NumServers returns the number of servers in the fabric.
func (t *Topology) NumServers() int { return len(t.serverIDs) }

// NumRacks returns the number of racks.
func (t *Topology) NumRacks() int { return len(t.torIDs) }

// NumSpines returns the number of spine switches.
func (t *Topology) NumSpines() int { return len(t.spineIDs) }

// NumLinks returns the number of unidirectional links.
func (t *Topology) NumLinks() int { return len(t.links) }

// NumNodes returns the number of nodes (servers, switches, allocator).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all links. The returned slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// Server returns the NodeID of server i (0 <= i < NumServers).
func (t *Topology) Server(i int) NodeID { return t.serverIDs[i] }

// ServerIndex returns the server index of a server node id.
func (t *Topology) ServerIndex(id NodeID) int { return t.nodes[id].Index }

// ToRForRack returns the ToR switch of rack r.
func (t *Topology) ToRForRack(r int) NodeID { return t.torIDs[r] }

// SpineSwitch returns the NodeID of spine s.
func (t *Topology) SpineSwitch(s int) NodeID { return t.spineIDs[s] }

// AllocatorNode returns the allocator host's NodeID and whether it exists.
func (t *Topology) AllocatorNode() (NodeID, bool) {
	if t.allocatorID < 0 {
		return 0, false
	}
	return t.allocatorID, true
}

// RackOfServer returns the rack index of server i.
func (t *Topology) RackOfServer(i int) int { return i / t.cfg.ServersPerRack }

// LinkBetween returns the link from src to dst, if one exists.
func (t *Topology) LinkBetween(src, dst NodeID) (LinkID, bool) {
	id, ok := t.linkByPair[[2]NodeID{src, dst}]
	return id, ok
}

// UplinkID returns the ToR→spine uplink from rack r to spine (or
// aggregation switch) s, if one exists. Fault plans address fabric links
// symbolically by (rack, spine) so the same plan resolves against both the
// full and the shrunk scenario fabrics.
func (t *Topology) UplinkID(rack, spine int) (LinkID, bool) {
	if rack < 0 || rack >= len(t.torIDs) || spine < 0 || spine >= len(t.spineIDs) {
		return 0, false
	}
	return t.LinkBetween(t.torIDs[rack], t.spineIDs[spine])
}

// DownlinkID returns the spine→ToR downlink from spine s to rack r, if one
// exists. It is the reverse direction of UplinkID.
func (t *Topology) DownlinkID(spine, rack int) (LinkID, bool) {
	if rack < 0 || rack >= len(t.torIDs) || spine < 0 || spine >= len(t.spineIDs) {
		return 0, false
	}
	return t.LinkBetween(t.spineIDs[spine], t.torIDs[rack])
}

// SetRouteSalt replaces the ECMP hash salt. Route folds the salt into the
// caller-supplied path choice, so changing it re-hashes every cross-rack
// path — the fault layer's model of a fabric-wide ECMP re-seed. Paths
// already installed in the data plane keep their old links (the simulator
// routes a flowlet once, at start); only paths routed after the change see
// the new mapping, which is exactly the arbiter/fabric divergence hazard
// the ecmp-rehash scenarios exercise.
func (t *Topology) SetRouteSalt(salt uint64) { t.routeSalt.Store(salt) }

// RouteSalt returns the current ECMP hash salt.
func (t *Topology) RouteSalt() uint64 { return t.routeSalt.Load() }

// Capacities returns a slice of link capacities indexed by LinkID.
func (t *Topology) Capacities() []float64 {
	caps := make([]float64, len(t.links))
	for i, l := range t.links {
		caps[i] = l.Capacity
	}
	return caps
}

// Path is the ordered list of links a flow traverses from source server to
// destination server.
type Path []LinkID

// MaxRouteLinks is the longest path RouteInto produces (a cross-pod fat-tree
// path); scratch of this capacity never grows.
const MaxRouteLinks = 6

// Route computes the path from server src to server dst (server indices, not
// NodeIDs). Cross-rack flows traverse a spine chosen by spineChoice modulo
// the number of spines; intra-rack flows go server→ToR→server. Route mirrors
// ECMP path selection with the hash supplied by the caller so the allocator
// and the simulator agree on paths (§7: Flowtune works with the paths the
// network selects). It allocates the returned Path; RouteInto is the
// non-allocating form.
func (t *Topology) Route(src, dst int, spineChoice int) (Path, error) {
	var scratch [MaxRouteLinks]int32
	links, err := t.RouteInto(scratch[:0], src, dst, spineChoice)
	if err != nil {
		return nil, err
	}
	p := make(Path, len(links))
	for i, l := range links {
		p[i] = LinkID(l)
	}
	return p, nil
}

// RouteInto is Route appending the path's link indices (LinkID values, as
// the solvers index links) to buf: with cap(buf)-len(buf) >= MaxRouteLinks
// it allocates nothing, and it is pure table lookups, so the allocators call
// it on every flowlet start instead of memoizing paths.
func (t *Topology) RouteInto(buf []int32, src, dst int, spineChoice int) ([]int32, error) {
	if src < 0 || src >= len(t.serverIDs) || dst < 0 || dst >= len(t.serverIDs) {
		return buf, fmt.Errorf("topology: server index out of range: src=%d dst=%d (have %d servers)", src, dst, len(t.serverIDs))
	}
	if src == dst {
		return buf, fmt.Errorf("topology: source and destination are the same server %d", src)
	}
	up1, down1 := t.serverUp[src], t.serverDown[dst]
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	if srcRack == dstRack {
		return append(buf, up1, down1), nil
	}
	if salt := t.routeSalt.Load(); salt != 0 {
		// A bounded additive perturbation keeps routing periodic in the
		// fabric's ECMP fan-out (both the two-tier spine pick and the
		// fat-tree choice decomposition are modulo-arithmetic), so the
		// RouteCache's canonicalized keys stay correct under any salt.
		spineChoice += int(salt % (1 << 20))
	}
	a := mod(spineChoice, t.torFan)
	up2, down2 := t.torUp[srcRack*t.torFan+a], t.torDown[dstRack*t.torFan+a]
	ft := t.fatTree
	if ft == nil || ft.podOfRack(srcRack) == ft.podOfRack(dstRack) {
		return append(buf, up1, up2, down2, down1), nil
	}
	// Cross-pod: over the core the choice's second digit picks among those
	// the source pod's aggregation switch a reaches, down through the
	// destination pod's aggregation switch at the same position.
	j := mod(spineChoice/ft.half, ft.half)
	srcAgg := ft.podOfRack(srcRack)*ft.half + a
	dstAgg := ft.podOfRack(dstRack)*ft.half + a
	return append(buf, up1, up2, t.aggUp[srcAgg*ft.half+j], t.aggDown[dstAgg*ft.half+j], down2, down1), nil
}

// HopCount returns the number of links on the path between two servers:
// 2 for intra-rack paths, 4 for cross-rack (two-tier) or intra-pod
// (fat-tree) paths, and 6 for cross-pod fat-tree paths.
func (t *Topology) HopCount(src, dst int) int {
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	if srcRack == dstRack {
		return 2
	}
	if ft := t.fatTree; ft != nil && ft.podOfRack(srcRack) != ft.podOfRack(dstRack) {
		return 6
	}
	return 4
}

// BaseRTT returns the unloaded round-trip time between two servers,
// including link propagation and host delays, in seconds.
func (t *Topology) BaseRTT(src, dst int) float64 {
	hops := t.HopCount(src, dst)
	oneWay := float64(hops)*t.cfg.LinkDelay + t.cfg.HostDelay
	return 2 * oneWay
}
