package main

import "testing"

// TestServeRejectsBadScale checks that serve refuses a scale factor the
// generator cannot take with a usage error, before generating anything.
func TestServeRejectsBadScale(t *testing.T) {
	for _, sf := range []string{"0", "-0.5", "NaN", "+Inf"} {
		err := runServe([]string{"-addr", "127.0.0.1:0", "-sf", sf})
		if _, ok := err.(usageError); !ok {
			t.Errorf("serve -sf %s: error %v, want a usage error", sf, err)
		}
	}
}
