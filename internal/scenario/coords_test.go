package scenario

import (
	"strings"
	"testing"
)

// TestCoordTable pins the coordinate table itself: the axis order `elin
// list -section axes` prints, that every row but the engine binds a field
// of Scenario and of ScenarioInfo, and that a coordinate's default
// round-trips through both.
func TestCoordTable(t *testing.T) {
	var axes []string
	for _, c := range Coords {
		axes = append(axes, c.Axis)
	}
	if got, want := strings.Join(axes, " "),
		"engine impl workload policy faults net-faults wal-sync monitor procs ops tolerance seed"; got != want {
		t.Fatalf("axes = %q, want %q", got, want)
	}
	for _, c := range Coords[1:] {
		var s Scenario
		var inf ScenarioInfo
		c.Set(&s, c.Default)
		c.Set(&inf, c.Get(&s))
		if got := c.Get(&inf); got != c.Default {
			t.Errorf("%s: default %q came back as %q", c.Axis, c.Default, got)
		}
		if got, err := c.Canon(""); err != nil || got != c.Default {
			t.Errorf("%s: Canon(\"\") = %q, %v, want the default %q", c.Axis, got, err, c.Default)
		}
	}
}

// TestCoordCanon pins the one canonicaliser per coordinate: every spelling
// of a value resolves to one name, options at their default are stored as
// "", and unresolvable values are errors that name the axis.
func TestCoordCanon(t *testing.T) {
	byAxis := map[string]Coord{}
	for _, c := range Coords {
		byAxis[c.Axis] = c
	}
	cases := []struct {
		axis, in, canon, stored string
	}{
		{"engine", "", "sim", "sim"},
		{"impl", "slog-batch:7", "slog-batch:7", "slog-batch:7"},
		{"workload", "uniform:write(3)", "uniform:write(3)", "uniform:write(3)"},
		{"policy", "", "immediate", "immediate"},
		{"faults", "jitter-light", "jitter:3", "jitter:3"},
		{"faults", "jitter:2,stall:0@2+2", "stall:0@2+2,jitter:2", "stall:0@2+2,jitter:2"},
		{"faults", "none", "none", ""},
		{"net-faults", "partition-heal", "partition:60+40", "partition:60+40"},
		{"net-faults", "", "none", ""},
		{"wal-sync", "", "none", ""},
		{"wal-sync", "none", "none", ""},
		{"wal-sync", "never", "never", "never"},
		{"wal-sync", "interval:08", "interval:8", "interval:8"},
		{"monitor", "full", "full", ""},
		{"monitor", "sample:04", "sample:4", "sample:4"},
		{"procs", "3", "3", "3"},
		{"tolerance", "-1", "-1", "-1"},
	}
	for _, tc := range cases {
		c := byAxis[tc.axis]
		got, err := c.Canon(tc.in)
		if err != nil || got != tc.canon {
			t.Errorf("%s: Canon(%q) = %q, %v, want %q", tc.axis, tc.in, got, err, tc.canon)
		}
		if stored := c.Stored(got); stored != tc.stored {
			t.Errorf("%s: Stored(%q) = %q, want %q", tc.axis, got, stored, tc.stored)
		}
	}
	for axis, bad := range map[string]string{
		"engine": "nosuch", "workload": "nosuch", "policy": "nosuch", "faults": "explode:9",
		"net-faults": "sever:everything", "wal-sync": "fsync-sometimes", "monitor": "shard:key",
		"procs": "0", "ops": "-2",
	} {
		if _, err := byAxis[axis].Canon(bad); err == nil || !strings.Contains(err.Error(), axis) {
			t.Errorf("%s: Canon(%q) error = %v, want one naming the axis", axis, bad, err)
		}
	}
}

// An option set on an engine that will reject it still enters the cell
// identity and the echo: a grid that forgot to exclude its faulted sim
// cells gets distinct error cells, not colliding ones.
func TestCellIDCarriesOptionsOnEveryEngine(t *testing.T) {
	plain := Scenario{}.CellID("sim")
	faulted := Scenario{Faults: "jitter-light", Monitor: "sample:2"}.CellID("sim")
	if plain == faulted || !strings.Contains(faulted, " faults=jitter:3 monitor=sample:2 ") {
		t.Errorf("sim cell ids:\n  plain   %s\n  faulted %s", plain, faulted)
	}
}
