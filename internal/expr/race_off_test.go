//go:build !race

package expr_test

const raceEnabled = false
