//go:build race

package expr_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so the zero-allocation tests have nothing to pin.
const raceEnabled = true
