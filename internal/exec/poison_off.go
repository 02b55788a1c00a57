//go:build !ecodbpoison

package exec

// poisoning is off without the ecodbpoison build tag: the checks and
// overwrites it guards compile away.
const poisoning = false
