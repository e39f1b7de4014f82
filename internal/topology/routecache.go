package topology

// routeChoices returns the number of distinct ECMP path choices between any
// server pair: Route(src, dst, c) and Route(src, dst, c') return the same
// path whenever c ≡ c' modulo this count (for non-negative choices).
// Two-tier fabrics hash over the spines; a fat-tree hashes over the k/2
// source-pod aggregation switches and the k/2 cores reachable from each.
func (t *Topology) routeChoices() int {
	if t.fatTree != nil {
		return t.fatTree.half * t.fatTree.half
	}
	return len(t.spineIDs)
}

// routeKey is the canonical cache key of one routed path.
type routeKey struct {
	src, dst int32
	choice   int32
}

// RouteCache memoizes Topology.Route for callers that route the same
// endpoint pairs repeatedly and want to keep the Paths: the first request for
// a given (src, dst, ECMP choice) triple routes and caches the path, and every
// later one returns the cached Path. Cached paths are shared — callers must
// treat them as read-only.
//
// The allocators do not use it: their flowlet-start path calls
// Topology.RouteInto, which is table lookups into caller scratch and
// allocates nothing, whereas a cache keyed by endpoint pair misses almost
// always under spread-out traffic and only grows.
//
// The choice is canonicalized modulo the fabric's ECMP fan-out before
// keying, so the cache is bounded by servers² × choices regardless of the
// flow-ID space. A RouteCache is not safe for concurrent use.
type RouteCache struct {
	topo    *Topology
	choices int
	paths   map[routeKey]Path
	// salt is the topology route salt the cached paths were computed
	// under; Route drops the whole cache when the fabric re-hashes.
	salt uint64
}

// NewRouteCache creates an empty route cache over t.
func NewRouteCache(t *Topology) *RouteCache {
	return &RouteCache{
		topo:    t,
		choices: t.routeChoices(),
		paths:   make(map[routeKey]Path),
		salt:    t.RouteSalt(),
	}
}

// Len returns the number of cached paths.
func (rc *RouteCache) Len() int { return len(rc.paths) }

// Route returns the path from server src to server dst for the given ECMP
// choice, computing and caching it on first use. It returns exactly what
// Topology.Route would.
func (rc *RouteCache) Route(src, dst int, choice int) (Path, error) {
	if s := rc.topo.RouteSalt(); s != rc.salt {
		// The fabric re-seeded its ECMP hash: every cached path may now
		// be stale, so start over.
		rc.salt = s
		clear(rc.paths)
	}
	if choice < 0 {
		// Negative choices decompose differently under truncated division
		// in the fat-tree router; they do not occur on the churn path
		// (flow IDs are non-negative), so bypass the cache rather than
		// canonicalize them wrongly.
		return rc.topo.Route(src, dst, choice)
	}
	key := routeKey{src: int32(src), dst: int32(dst), choice: int32(choice % rc.choices)}
	if src >= 0 && dst >= 0 && src < rc.topo.NumServers() && dst < rc.topo.NumServers() &&
		rc.topo.RackOfServer(src) == rc.topo.RackOfServer(dst) {
		// Intra-rack paths ignore the ECMP choice entirely.
		key.choice = 0
	}
	if p, ok := rc.paths[key]; ok {
		return p, nil
	}
	p, err := rc.topo.Route(src, dst, choice)
	if err != nil {
		return nil, err
	}
	rc.paths[key] = p
	return p, nil
}
