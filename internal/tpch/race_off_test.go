//go:build !race

package tpch

const raceEnabled = false
