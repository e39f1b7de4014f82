// Package norm implements Flowtune's rate normalization (§4): the optimizer
// works online and may momentarily allocate more than a link's capacity while
// prices re-converge after flowlet churn; the normalizer scales the rates
// down so that no link is over-subscribed before they are sent to endpoints.
// Two schemes from the paper are provided: uniform normalization (U-NORM) and
// per-flow normalization (F-NORM). F-NORM's two passes, LinkRatios and
// ScaleByWorstRatio, are functions over plain slices that the multicore
// allocator also runs, per LinkBlock and per FlowBlock.
package norm
