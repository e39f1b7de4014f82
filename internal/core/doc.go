// Package core implements Flowtune's centralized flowlet allocator (§2 of
// the paper): it receives flowlet start and end notifications from endpoints,
// runs the NED optimizer over the current flow set, normalizes the resulting
// rates with F-NORM, and produces rate updates for endpoints,
// notifying them only when a flow's rate changes by more than a configurable
// threshold (§6.4). The package also contains the FlowBlock/LinkBlock
// multicore implementation of the optimizer (§5).
//
// The ParallelAllocator is the one engine that runs: the flowtuned daemon,
// the transport simulator's Flowtune endpoints and the fluid update-traffic
// model all run it with one FlowBlock (the daemon with more when -blocks asks),
// and its multi-block form reproduces the paper's multicore scaling study. The
// sequential Allocator is the single-core reference it is tested against bit
// for bit, and the mirror the repository benchmark replays its events through.
// They are one iteration over two data layouts: the
// Allocator runs num's and norm's kernels (rate update, NED price step, link
// ratios, F-NORM sweep) on the fabric's link space, the ParallelAllocator runs
// the same functions per FlowBlock on a local link space — a standalone
// num.Compiled over [up positions | down positions] with one price, load,
// Hessian and ratio array each — and adds only what is about blocks: the
// pairwise merge rounds between the rate update and the price update, the
// copies of prices and ratios back into the blocks, cache-line-padded local
// arrays and a Morton-order FlowBlock layout so early merge rounds touch
// neighbours. FlowBlocks are data, not goroutines: min(blocks², GOMAXPROCS)
// workers each run a contiguous Morton run of them, the goroutine calling
// Iterate being worker 0, and meet at one sense-reversing spin-then-park
// barrier between phases — so with one worker no goroutine exists. Both
// share one admission rule for flowlet weights (admitWeight) and one notify
// filter (appendSignificant); the boundary API of the sharded exchange
// (parallel_boundary.go) and live capacity changes are the ParallelAllocator's
// alone. Both maintain their flow sets incrementally — FlowletStart and
// FlowletEnd are O(route length) operations on a route index of fixed-stride
// rows, where a swap-delete copies the last row into the gap — so the
// per-iteration cost is independent of churn history. The ParallelAllocator also gives every flow a dense, stable
// slot (SlotOf, Admit, EndSlot, RateUpdate.Slot), so a caller keeping
// per-flow state — the daemon's flow table — indexes a slice by it and keeps
// no flow index of its own. The one ID → slot index is a FlowIndex: an
// open-addressed table with backward-shift deletion, which churn at a constant
// live count never grows or rehashes, where a Go map keeps regrowing its
// tables. Churn costs one probe of it per event: an admission is Bind (the
// index's GetOrPut) then Admit, a retirement Unbind (its Take) then EndSlot,
// and a refused admission releases the binding it made. The endpoint's
// registrations (transport.AllocClient, transport.ShardedClient) are indexed
// by the same type. A RateUpdate names the flow and its slot, not its sender:
// whoever delivers it knows the recipient from its own registration. See
// ARCHITECTURE.md, "The parallel iteration path".
package core
