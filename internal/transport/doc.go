// Package transport implements the endpoint congestion-control schemes
// compared in Flowtune's evaluation (§6.3–§6.5) on top of the packet
// simulator: Flowtune's allocator-paced endpoints, DCTCP, pFabric,
// Cubic-over-sfqCoDel, and XCP, plus a plain TCP(Reno-like) fallback. The
// Engine type wires a workload of flowlets into a simulated fabric with the
// chosen scheme and collects the metrics the figures report.
//
// The transports are simplified relative to full protocol implementations,
// but each one reproduces the
// mechanism the paper's comparison hinges on: DCTCP's ECN-fraction window
// control, pFabric's shortest-remaining-first priority dropping, sfqCoDel's
// per-flow CoDel dropping under Cubic, XCP's conservative explicit feedback,
// and Flowtune's explicit rate allocation with near-empty queues.
//
// Under the Flowtune scheme the Engine also simulates the control plane:
// flowlet start/end notifications and rate updates travel as real packets
// over the allocator's uplinks (topology.PathToAllocator), so control-plane
// latency and bandwidth are part of every result. Where the control plane
// *terminates* is pluggable through the AllocatorBackend seam: the default
// is an in-process copy of the allocator every flowtuned runs (a one-block
// core.ParallelAllocator, stepped as the daemon steps it), and AllocClient —
// the endpoint side of the flowtuned wire protocol — lets the same simulation
// drive a live allocator daemon over a socket or in-memory pipe instead.
// Either backend's rate updates name flows, not senders: the Engine keeps each
// registered flow's sender and addresses the update to it, dropping updates
// for flows it no longer holds. AllocClient likewise returns what the frames
// carried, resolving a flow ID once per start and once per end and never per
// decoded rate.
package transport
