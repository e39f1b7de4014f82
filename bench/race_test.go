//go:build race

package main

// raceEnabled lets the smoke test skip the million-flow workload, whose
// set-up alone takes minutes under the race detector.
const raceEnabled = true
