// Package topology models the datacenter fabrics Flowtune is evaluated on,
// and provides the link/path bookkeeping shared by the rate allocator and
// the packet simulator.
//
// Two fabric families are supported:
//
//   - NewTwoTier builds the two-tier Clos (leaf-spine) fabrics of the
//     paper's evaluation: racks of servers under top-of-rack switches, fully
//     connected to a spine layer (DefaultSimConfig is the paper's 9×16
//     fabric).
//   - NewFatTree builds three-tier k-ary fat-trees (Al-Fares et al., SIGCOMM
//     2008): k pods of k/2 edge and k/2 aggregation switches joined by
//     (k/2)² cores, with uniform link capacity and full bisection bandwidth.
//
// Both families expose the same Topology API: ECMP-style Route selection
// with a caller-supplied hash (§7: Flowtune works with the paths the network
// selects; RouteInto is the table-driven, non-allocating form the allocators
// call per flowlet start), allocator control paths
// (PathToAllocator/PathFromAllocator), and the LinkBlock partitioning used by
// the multicore allocator (§5).
package topology
