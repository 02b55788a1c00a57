//go:build !race

package opt_test

const raceEnabled = false
