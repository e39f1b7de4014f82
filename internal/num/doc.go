// Package num implements the Network Utility Maximization (NUM) machinery at
// the heart of Flowtune's rate allocator (§3 of the paper): flow utility
// functions, the price-based dual decomposition, and the price-update
// algorithms compared in the paper — Newton-Exact-Diagonal (NED), Gradient
// projection, the Fast weighted Gradient Method (FGM), and the measurement
// based Newton-like method — together with their reduced-precision "RT"
// variants.
//
// The solver hot loops do not iterate the Problem's []Flow directly: the flow
// set is compiled into a flat CSR flow→link index with dense per-flow weights
// (see Compiled) so the common LogUtility case runs an interface-free,
// branch-free inner loop, and the index is maintained incrementally across
// flowlet churn via Problem.AppendFlow and Problem.RemoveFlowSwap. NED's two
// kernels are also entry points over plain slices (NEDRateUpdate,
// NEDPriceUpdate) for an index no Problem owns: the multicore allocator runs
// them per FlowBlock and per LinkBlock, so the iteration exists once. See
// ARCHITECTURE.md for the full design note.
package num
