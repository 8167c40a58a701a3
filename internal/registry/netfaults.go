package registry

import (
	"fmt"
	"sort"
	"strings"

	"github.com/elin-go/elin/internal/faults"
)

// netFaultPresets names canned network fault specs for the serve engine.
// Each value is plain network-faults grammar, so a preset is exactly
// shorthand for spelling it out. Trigger tickets are sized to fire inside
// the small op budgets the smoke grids run (a few hundred commits).
var netFaultPresets = map[string]string{
	// drop-one: client 0 loses its connection once, shortly after warmup.
	"drop-one": "drop:0@40",
	// flaky-net: two staggered drops, one slow link, one partition-and-heal
	// — the retry/backoff/resume diet.
	"flaky-net": "drop:0@40,drop:1@80,slow:2:200,partition:120+40",
	// partition-heal: one symmetric split that heals on its own.
	"partition-heal": "partition:60+40",
	// net-chaos: everything at once — the nightly network chaos diet.
	"net-chaos": "drop:0@30,drop:1@60,drop:2@90,slow:0:100,slow:3:300,partition:150+50",
}

// NetFaultNames lists the network fault-spec vocabulary: the preset names
// plus the grammar templates ParseNet accepts.
func NetFaultNames() []string {
	names := make([]string, 0, len(netFaultPresets)+4)
	for n := range netFaultPresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return append([]string{"none"}, append(names,
		"drop:C@T", "partition:T+D", "slow:C:LAT")...)
}

// NetFaults resolves a network fault spec by name: "" or "none" (no
// injection, nil spec), a preset from NetFaultNames, or the grammar
// directly ("drop:0@40,slow:2:200,partition:120+40").
func NetFaults(name string) (*faults.NetSpec, error) {
	name = strings.TrimSpace(name)
	if grammar, ok := netFaultPresets[name]; ok {
		return faults.ParseNet(grammar)
	}
	sp, err := faults.ParseNet(name)
	if err != nil {
		return nil, fmt.Errorf("registry: unknown network fault spec %q (known: %s): %w",
			name, strings.Join(NetFaultNames(), ", "), err)
	}
	return sp, nil
}
