//go:build race

package exec

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so the zero-allocation tests have nothing to pin.
const raceEnabled = true
