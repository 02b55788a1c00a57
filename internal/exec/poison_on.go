//go:build ecodbpoison

package exec

// poisoning is set by the ecodbpoison build tag: Account.Release overwrites
// every lease it takes back (expr's Poison* values) and refuses to run
// while a pump is open, so a read of released state fails the tests loudly.
const poisoning = true
