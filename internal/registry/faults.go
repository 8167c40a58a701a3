package registry

import (
	"fmt"
	"sort"
	"strings"

	"github.com/elin-go/elin/internal/faults"
)

// faultPresets names canned fault-injection specs. Each value is plain
// faults grammar, so a preset is exactly shorthand for spelling it out.
// Crash points and WAL corruption depend on the run's op budget and log
// file, so presets cover only scale-tolerant schedule faults; spell
// "crash:K", "flip" and "trunc:N" directly.
var faultPresets = map[string]string{
	// stall-one: client 0 freezes for 64 commits shortly after warmup.
	"stall-one": "stall:0@32+64",
	// stall-storm: the first two clients freeze back to back, overlapping.
	"stall-storm": "stall:0@16+48,stall:1@40+48",
	// jitter-light / jitter-heavy: per-op scheduling delay, mild and rough.
	"jitter-light": "jitter:3",
	"jitter-heavy": "jitter:25",
	// chaos: overlapping stalls plus jitter — the nightly chaos diet.
	"chaos": "stall:0@16+32,stall:1@64+32,jitter:4",
}

// FaultNames lists the fault-spec vocabulary: the preset names plus the
// grammar templates Parse accepts.
func FaultNames() []string {
	names := make([]string, 0, len(faultPresets)+6)
	for n := range faultPresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return append([]string{"none"}, append(names,
		"stall:C@T+D", "crash:K", "jitter:N", "flip[:OFF]", "trunc:N")...)
}

// Faults resolves a fault spec by name: "" or "none" (no injection, nil
// spec), a preset from FaultNames, or the faults grammar directly
// ("stall:0@64+256,crash:5000,jitter:20,flip").
func Faults(name string) (*faults.Spec, error) {
	name = strings.TrimSpace(name)
	if grammar, ok := faultPresets[name]; ok {
		return faults.Parse(grammar)
	}
	sp, err := faults.Parse(name)
	if err != nil {
		return nil, fmt.Errorf("registry: unknown fault spec %q (known: %s): %w",
			name, strings.Join(FaultNames(), ", "), err)
	}
	return sp, nil
}
