package registry

import (
	"strings"
	"testing"
)

// TestFaults pins the fault-spec vocabulary: none, presets, raw grammar,
// and loud rejection with the known names listed.
func TestFaults(t *testing.T) {
	for _, none := range []string{"", "none", " none "} {
		sp, err := Faults(none)
		if err != nil || !sp.Zero() {
			t.Errorf("Faults(%q) = %v, %v; want zero spec", none, sp, err)
		}
	}
	for _, name := range []string{"stall-one", "stall-storm", "jitter-light", "jitter-heavy", "chaos"} {
		sp, err := Faults(name)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if sp.Zero() {
			t.Errorf("preset %q resolves to the zero spec", name)
		}
		// Preset grammar reparses to itself (canonical).
		if again, err := Faults(sp.String()); err != nil || again.String() != sp.String() {
			t.Errorf("preset %q grammar %q not canonical: %v", name, sp.String(), err)
		}
	}
	sp, err := Faults("crash:100,jitter:2")
	if err != nil || sp.CrashAtCommit != 100 || sp.JitterMax != 2 {
		t.Errorf("grammar resolution = %+v, %v", sp, err)
	}
	if _, err := Faults("chaos"); err != nil {
		t.Errorf("Faults(chaos): %v", err)
	}
	_, err = Faults("explode:9")
	if err == nil || !strings.Contains(err.Error(), "chaos") || !strings.Contains(err.Error(), "stall:C@T+D") {
		t.Errorf("unknown fault spec error does not list the vocabulary: %v", err)
	}
}
