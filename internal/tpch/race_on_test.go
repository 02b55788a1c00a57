//go:build race

package tpch

// raceEnabled reports that the race detector is on: its instrumentation
// turns slices.Grow's append-of-make into two allocations, so allocation
// counts no longer describe the normal build.
const raceEnabled = true
