// Package campaign runs declarative sweep grids over scenarios: one Spec
// names axes (the rows of the coordinate table, scenario.Coords), expands
// their cartesian product minus exclusion predicates into Scenario cells,
// executes every cell on one shared bounded worker pool, and aggregates
// the outcomes into a stable schema-tagged Campaign report
// (elin/campaign/v1) a machine can diff: Compare classifies every cell
// against a baseline campaign as same/flip/new/missing and Gate turns
// flips into a non-zero exit — the regression gate CI runs on.
//
// The paper's paradox is a statement about families of executions —
// eventual linearizability looks fine on any one run and only breaks when
// bases, process counts and schedules are swept — so the grid runner, not
// the single scenario, is the natural unit of reproduction.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
)

// SpecSchema is the sweep-spec JSON schema identifier.
const SpecSchema = "elin/sweep/v1"

// Axes are the sweep dimensions, one field per row of the coordinate table
// (scenario.Coords — which binds them by field name, and owns each axis's
// default and canonical spellings). Every non-empty axis contributes one
// cartesian factor; an empty axis contributes its single default.
type Axes struct {
	Engine   []string `json:"engine,omitempty"`
	Impl     []string `json:"impl,omitempty"`
	Workload []string `json:"workload,omitempty"`
	Policy   []string `json:"policy,omitempty"`
	// Faults sweeps fault-injection specs over live cells (presets or the
	// faults grammar; default "none"). Explore and sim engines reject
	// faulted scenarios, so grids mixing engines with a faults axis must
	// exclude the faulted non-live cells explicitly — the expansion never
	// drops them silently.
	Faults []string `json:"faults,omitempty"`
	// NetFaults sweeps network fault specs over serve cells (presets or
	// the net-faults grammar; default "none"). Every other engine rejects
	// them, under the same exclude-explicitly rule as Faults.
	NetFaults []string `json:"net-faults,omitempty"`
	// WALSync sweeps commit-log durability over live and serve cells:
	// "none" (no WAL at all — the default), or a durability policy
	// ("always", "never", "interval:N") under which each cell writes its
	// merged stream to a run-scoped temporary log. "none" and "never" are
	// distinct coordinates: "never" still pays the write path, just not
	// the fsyncs.
	WALSync []string `json:"wal-sync,omitempty"`
	// Monitor sweeps the online monitor implementation over live and serve
	// cells ("full" — the default, "sample:N", "none"). The
	// other engines reject non-default monitors, under the same
	// exclude-explicitly rule as Faults.
	Monitor   []string `json:"monitor,omitempty"`
	Procs     []int    `json:"procs,omitempty"`
	Ops       []int    `json:"ops,omitempty"`
	Tolerance []int    `json:"tolerance,omitempty"`
	Seed      []int64  `json:"seed,omitempty"`
}

// Match is an exclusion predicate over resolved grid coordinates: a cell
// is excluded when every set field matches (unset fields are wildcards).
// String fields compare against the resolved names that appear in cell
// identities ("sim", "default", "immediate" — not ""), so predicates and
// cell IDs share one vocabulary.
type Match struct {
	Engine    string `json:"engine,omitempty"`
	Impl      string `json:"impl,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Faults    string `json:"faults,omitempty"`
	NetFaults string `json:"net-faults,omitempty"`
	WALSync   string `json:"wal-sync,omitempty"`
	Monitor   string `json:"monitor,omitempty"`
	Procs     *int   `json:"procs,omitempty"`
	Ops       *int   `json:"ops,omitempty"`
	Tolerance *int   `json:"tolerance,omitempty"`
	Seed      *int64 `json:"seed,omitempty"`
}

// Point is one fully resolved grid coordinate: every name canonical, every
// option at its default stored as "".
type Point struct {
	Engine    string
	Impl      string
	Workload  string
	Policy    string
	Faults    string
	NetFaults string
	WALSync   string
	Monitor   string
	Procs     int
	Ops       int
	Tolerance int
	Seed      int64
}

// Spec is one declarative sweep: the axes, the exclusions, and the
// spec-level knobs every cell shares (scheduler/chooser for sim cells,
// analysis for explore cells, monitor stride for live cells, the per-cell
// budget and per-cell exploration workers).
type Spec struct {
	// Schema must be SpecSchema.
	Schema string `json:"schema"`
	// Name labels the campaign in reports and diffs.
	Name string `json:"name"`
	// Axes are the sweep dimensions.
	Axes Axes `json:"axes"`
	// Exclude drops every cell matched by any predicate.
	Exclude []Match `json:"exclude,omitempty"`

	// Scheduler/Chooser name the sim-cell schedule and base-object
	// adversary (defaults "rr"/"true"); the other engines ignore them.
	Scheduler string `json:"scheduler,omitempty"`
	Chooser   string `json:"chooser,omitempty"`
	// Analysis selects the explore-cell analysis (default "lin").
	Analysis string `json:"analysis,omitempty"`
	// Stride is the live-cell monitor stride in events (0 = automatic).
	Stride int `json:"stride,omitempty"`
	// Budget bounds every cell (exploration depth, sim step cap).
	Budget *scenario.Budget `json:"budget,omitempty"`
	// Workers is the per-cell exploration worker count. It defaults to 1 —
	// across-cell concurrency comes from the campaign's shared pool, so
	// cells stay sequential inside and the pool saturates the cores.
	Workers int `json:"workers,omitempty"`
}

// analyses are the explore-cell analysis names a spec may select.
var analyses = map[string]bool{
	"":                       true,
	scenario.AnalysisLin:     true,
	scenario.AnalysisWeak:    true,
	scenario.AnalysisValency: true,
	scenario.AnalysisStable:  true,
}

// LoadSpec reads and validates a sweep spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read spec: %w", err)
	}
	sp, err := decodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: spec %s: %w", path, err)
	}
	return sp, nil
}

// decodeSpec parses and validates a sweep spec. Unknown JSON fields are
// rejected so a typo in a committed spec fails loudly instead of silently
// sweeping the wrong grid.
func decodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing content after the spec object (bad merge?)")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the schema tag and resolves every axis value and
// exclusion value that can be resolved without an engine in hand (the
// coordinate table's canonicalisers, plus the spec-level
// scheduler/chooser/analysis); implementation names are engine-dependent
// and resolve per cell at run time, surfacing as error cells. Resolution
// errors carry the registry's known-name lists.
func (sp *Spec) Validate() error {
	if sp.Schema != SpecSchema {
		return fmt.Errorf("schema %q, want %q", sp.Schema, SpecSchema)
	}
	if sp.Name == "" {
		return fmt.Errorf("missing name")
	}
	if _, err := registry.Scheduler(sp.Scheduler); err != nil {
		return err
	}
	if _, err := registry.Chooser(sp.Chooser); err != nil {
		return err
	}
	if !analyses[sp.Analysis] {
		return fmt.Errorf("unknown analysis %q (known: lin, stable, valency, weak)", sp.Analysis)
	}
	_, _, err := sp.grid()
	return err
}

// grid resolves the spec against the coordinate table. cols holds, per
// row, the axis's canonical values in spec order — the default alone when
// the axis is omitted; excl holds, per exclusion, each row's canonical
// value to match ("" is the wildcard). Repeated axis values are rejected:
// they would expand into cells with identical identities, which baseline
// diffing cannot tell apart. They compare resolved — "" and "sim", or a
// preset and its grammar, name the same coordinate and count as a repeat.
func (sp *Spec) grid() (cols, excl [][]string, err error) {
	for _, c := range scenario.Coords {
		col := c.List(&sp.Axes)
		if len(col) == 0 {
			col = []string{""}
		}
		seen := map[string]bool{}
		for i, v := range col {
			if col[i], err = c.Canon(v); err != nil {
				return nil, nil, err
			}
			if seen[col[i]] {
				return nil, nil, fmt.Errorf("axis %s repeats value %q", c.Axis, col[i])
			}
			seen[col[i]] = true
		}
		cols = append(cols, col)
	}
	for i := range sp.Exclude {
		if sp.Exclude[i] == (Match{}) {
			return nil, nil, fmt.Errorf("exclude[%d] is empty and would drop every cell", i)
		}
		want := make([]string, len(scenario.Coords))
		for j, c := range scenario.Coords {
			if v := c.Get(&sp.Exclude[i]); v != "" {
				if want[j], err = c.Canon(v); err != nil {
					return nil, nil, fmt.Errorf("exclude[%d]: %w", i, err)
				}
			}
		}
		excl = append(excl, want)
	}
	return cols, excl, nil
}

// Expand resolves the cartesian product of the axes minus the exclusions,
// in the coordinate table's order (engine slowest, seed fastest). It errors
// when nothing survives — an all-excluded grid is always a spec mistake.
func (sp *Spec) Expand() ([]Point, error) {
	cols, excl, err := sp.grid()
	if err != nil {
		return nil, err
	}
	var points []Point
	hits := make([]int, len(excl))
	vals := make([]string, len(cols))
	for idx := make([]int, len(cols)); idx != nil; idx = next(idx, cols) {
		for i, col := range cols {
			vals[i] = col[idx[i]]
		}
		if excluded(vals, excl, hits) {
			continue
		}
		var p Point
		for i, c := range scenario.Coords {
			c.Set(&p, c.Stored(vals[i]))
		}
		points = append(points, p)
	}
	// A predicate that matched nothing is a typo ("sloppy" for
	// "sloppy-counter"): the cells it meant to drop are silently running,
	// which in a baselined grid surfaces later as flaky canonical bytes.
	for i, n := range hits {
		if n == 0 {
			return nil, fmt.Errorf("campaign: spec %q exclude[%d] matches no cell (typo in a coordinate value?)", sp.Name, i)
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("campaign: spec %q expands to zero cells after exclusions", sp.Name)
	}
	return points, nil
}

// next advances the odometer idx over cols, last column fastest, and
// returns nil once it has rolled over.
func next(idx []int, cols [][]string) []int {
	for i := len(idx) - 1; i >= 0; i-- {
		if idx[i]++; idx[i] < len(cols[i]) {
			return idx
		}
		idx[i] = 0
	}
	return nil
}

// excluded tests the cell's canonical values against every predicate (not
// first-match), crediting each one that fires so Expand can report
// predicates that never do. A predicate fires when every value it sets
// matches; unset values are wildcards.
func excluded(vals []string, excl [][]string, hits []int) bool {
	drop := false
	for i, want := range excl {
		fires := true
		for j, w := range want {
			fires = fires && (w == "" || w == vals[j])
		}
		if fires {
			hits[i]++
			drop = true
		}
	}
	return drop
}

// Scenario builds the point's scenario with the spec-level knobs applied.
func (sp *Spec) Scenario(p Point) scenario.Scenario {
	s := scenario.Scenario{
		Scheduler: sp.Scheduler,
		Chooser:   sp.Chooser,
		Analysis:  sp.Analysis,
		Stride:    sp.Stride,
		Workers:   sp.cellWorkers(),
	}
	for _, c := range scenario.Coords[1:] { // all but the engine, which runs it
		c.Set(&s, c.Get(&p))
	}
	if sp.Budget != nil {
		s.Budget = *sp.Budget
	}
	return s
}

// cellWorkers is the per-cell exploration worker count (default 1: the
// shared pool supplies the parallelism).
func (sp *Spec) cellWorkers() int {
	if sp.Workers == 0 {
		return 1
	}
	return sp.Workers
}
