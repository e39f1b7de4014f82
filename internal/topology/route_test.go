package topology

import (
	"slices"
	"testing"
)

// refRoute is the routing policy walked node by node through LinkBetween —
// the map lookups the dense route tables replace — and kept here as the
// reference RouteInto is checked against.
func refRoute(t *Topology, src, dst, choice int) Path {
	link := func(a, b NodeID) LinkID {
		id, ok := t.LinkBetween(a, b)
		if !ok {
			panic("refRoute: nodes are not adjacent")
		}
		return id
	}
	srcRack, dstRack := t.RackOfServer(src), t.RackOfServer(dst)
	srcToR, dstToR := t.ToRForRack(srcRack), t.ToRForRack(dstRack)
	up1, down1 := link(t.Server(src), srcToR), link(dstToR, t.Server(dst))
	if srcRack == dstRack {
		return Path{up1, down1}
	}
	choice += int(t.RouteSalt() % (1 << 20))
	if t.fatTree == nil {
		spine := t.SpineSwitch(mod(choice, len(t.spineIDs)))
		return Path{up1, link(srcToR, spine), link(spine, dstToR), down1}
	}
	half := t.fatTree.cfg.K / 2
	a := mod(choice, half)
	srcPod, dstPod := srcRack/half, dstRack/half
	srcAgg := t.SpineSwitch(srcPod*half + a)
	if srcPod == dstPod {
		return Path{up1, link(srcToR, srcAgg), link(srcAgg, dstToR), down1}
	}
	core := t.coreIDs[a*half+mod(choice/half, half)]
	dstAgg := t.SpineSwitch(dstPod*half + a)
	return Path{up1, link(srcToR, srcAgg), link(srcAgg, core), link(core, dstAgg), link(dstAgg, dstToR), down1}
}

func routeTestFabrics(t *testing.T) map[string]*Topology {
	t.Helper()
	twoTier, err := NewTwoTier(Config{Racks: 5, ServersPerRack: 3, Spines: 4, LinkCapacity: 10e9, WithAllocator: true})
	if err != nil {
		t.Fatal(err)
	}
	fatTree, err := NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9, WithAllocator: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Topology{"two-tier": twoTier, "fat-tree": fatTree}
}

// TestRouteIntoMatchesReference checks the table-driven router link for link
// against the node-by-node reference: every server pair, every ECMP choice
// through two full periods on both sides of zero (negative choices decompose
// differently under truncated division), with and without a route salt. Route
// is the same path as a Path.
func TestRouteIntoMatchesReference(t *testing.T) {
	for name, topo := range routeTestFabrics(t) {
		t.Run(name, func(t *testing.T) {
			n := topo.NumServers()
			period := topo.routeChoices()
			buf := make([]int32, 0, MaxRouteLinks)
			for _, salt := range []uint64{0, 1, 12345, 1<<40 + 7} {
				topo.SetRouteSalt(salt)
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						for choice := -2 * period; choice <= 2*period; choice++ {
							want := refRoute(topo, src, dst, choice)
							got, err := topo.RouteInto(buf[:0], src, dst, choice)
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != len(want) || len(got) != topo.HopCount(src, dst) {
								t.Fatalf("salt %d: %d→%d/%d: RouteInto %v, reference %v", salt, src, dst, choice, got, want)
							}
							for k := range got {
								if LinkID(got[k]) != want[k] {
									t.Fatalf("salt %d: %d→%d/%d: RouteInto %v, reference %v", salt, src, dst, choice, got, want)
								}
							}
							path, err := topo.Route(src, dst, choice)
							if err != nil || !slices.Equal(path, want) {
								t.Fatalf("salt %d: %d→%d/%d: Route %v, %v; reference %v", salt, src, dst, choice, path, err, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestRouteIntoAppendsWithoutAllocating pins the two properties the
// allocators' churn path relies on: RouteInto appends after what the buffer
// already holds, and with MaxRouteLinks of room it never allocates — even
// for the longest, cross-pod (or cross-rack) path.
func TestRouteIntoAppendsWithoutAllocating(t *testing.T) {
	for name, topo := range routeTestFabrics(t) {
		t.Run(name, func(t *testing.T) {
			src, dst := 0, topo.NumServers()-1
			buf := make([]int32, 1, 1+MaxRouteLinks)
			buf[0] = -7
			got, err := topo.RouteInto(buf, src, dst, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != -7 || len(got) != 1+topo.HopCount(src, dst) || len(got) < 5 {
				t.Fatalf("RouteInto(%d→%d) onto a 1-element buffer = %v", src, dst, got)
			}
			choice := 0
			if avg := testing.AllocsPerRun(1000, func() {
				choice++
				if _, err := topo.RouteInto(buf[:0], src, dst, choice); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("RouteInto allocates %.1f objects per call, want 0", avg)
			}
			if _, err := topo.RouteInto(buf[:0], src, src, 0); err == nil {
				t.Fatal("same-server route must fail")
			}
			if _, err := topo.RouteInto(buf[:0], -1, dst, 0); err == nil {
				t.Fatal("out-of-range server must fail")
			}
		})
	}
}
