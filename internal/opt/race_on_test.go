//go:build race

package opt_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so the allocation budgets have nothing to pin.
const raceEnabled = true
