package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestKeptNamesAreAccepted(t *testing.T) {
	for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "q4-bufferpool", "all"} {
		if err := checkName(name); err != nil {
			t.Errorf("checkName(%q) = %v, want accepted", name, err)
		}
	}
}

// TestUnknownNamesExitBeforeLoading drives run itself: a rejected name
// must return 2 with usage on stderr and never reach the TPC-H load,
// whose banner is the first thing run writes to stdout.
func TestUnknownNamesExitBeforeLoading(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retired bool
	}{
		{"fig55", false},
		{"writepath", true},
		{"replicas", true},
		{"analytics", true},
		{"durability", true},
		{"checkpoint", true},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-sf", "0.002", tc.name}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout before rejecting", tc.name, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "usage: taurus-bench") {
			t.Errorf("%s: stderr %q lacks the rejection or the usage", tc.name, msg)
		}
		if got := strings.Contains(msg, "benchmark/run.sh"); got != tc.retired {
			t.Errorf("%s: points at benchmark/run.sh = %v, want %v", tc.name, got, tc.retired)
		}
	}
}
