package main

import (
	"testing"

	"ecodb/internal/server"
)

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

// TestServeFlagDefaultsAreDefaultConfig checks that parsing no flags
// serves with exactly server.DefaultConfig: the flags take their defaults
// from it rather than restating them.
func TestServeFlagDefaultsAreDefaultConfig(t *testing.T) {
	opts, err := parseServe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := server.DefaultConfig(); opts.cfg != want {
		t.Errorf("serve with no flags: config %+v, want server.DefaultConfig() %+v", opts.cfg, want)
	}
}
