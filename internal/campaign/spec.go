// Package campaign runs declarative sweep grids over scenarios: one Spec
// names axes (engine, implementation, workload, policy, procs, ops,
// tolerance, seed), expands their cartesian product minus exclusion
// predicates into Scenario cells, executes every cell on one shared
// bounded worker pool, and aggregates the outcomes into a stable
// schema-tagged Campaign report (elin/campaign/v1) a machine can diff:
// Compare classifies every cell against a baseline campaign as
// same/flip/new/missing and Gate turns flips into a non-zero exit — the
// regression gate CI runs on.
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
	"os"

	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/wal"
)

// SpecSchema is the sweep-spec JSON schema identifier.
const SpecSchema = "elin/sweep/v1"

// Axes are the sweep dimensions. Every non-empty axis contributes one
// cartesian factor; an empty axis contributes the single scenario default
// (engine "sim", impl "cas-counter", workload "default", policy
// "immediate", procs 2, ops 2, tolerance 0, seed 0).
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
	// cells ("full" — the default, "sample:N", "shard:K", "none"). The
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

// zero reports whether no field is set — a predicate that would exclude
// every cell, always a spec mistake.
func (m Match) zero() bool {
	return m.Engine == "" && m.Impl == "" && m.Workload == "" && m.Policy == "" &&
		m.Faults == "" && m.NetFaults == "" && m.WALSync == "" && m.Monitor == "" &&
		m.Procs == nil && m.Ops == nil && m.Tolerance == nil && m.Seed == nil
}

// matches reports whether the point satisfies every set field.
func (m Match) matches(p Point) bool {
	switch {
	case m.Engine != "" && m.Engine != p.Engine,
		m.Impl != "" && m.Impl != p.Impl,
		m.Workload != "" && m.Workload != p.Workload,
		m.Policy != "" && m.Policy != p.Policy,
		m.Faults != "" && resolvedFaults(m.Faults) != resolvedFaults(p.Faults),
		m.NetFaults != "" && resolvedNetFaults(m.NetFaults) != resolvedNetFaults(p.NetFaults),
		m.WALSync != "" && resolvedWALSync(m.WALSync) != resolvedWALSync(p.WALSync),
		m.Monitor != "" && resolvedMonitor(m.Monitor) != resolvedMonitor(p.Monitor),
		m.Procs != nil && *m.Procs != p.Procs,
		m.Ops != nil && *m.Ops != p.Ops,
		m.Tolerance != nil && *m.Tolerance != p.Tolerance,
		m.Seed != nil && *m.Seed != p.Seed:
		return false
	}
	return true
}

// Point is one fully resolved grid coordinate.
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

// LoadSpec reads and validates a sweep spec file. Unknown JSON fields are
// rejected so a typo in a committed spec fails loudly instead of silently
// sweeping the wrong grid.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("campaign: parse spec %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: spec %s has trailing content after the spec object (bad merge?)", path)
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: spec %s: %w", path, err)
	}
	return &sp, nil
}

// Validate checks the schema tag and resolves every axis name that can be
// resolved without an engine in hand (engines, workload syntax, policies,
// the spec-level scheduler/chooser/analysis); implementation names are
// engine-dependent and resolve per cell at run time, surfacing as error
// cells. Resolution errors carry the registry's known-name lists.
func (sp *Spec) Validate() error {
	if sp.Schema != SpecSchema {
		return fmt.Errorf("schema %q, want %q", sp.Schema, SpecSchema)
	}
	if sp.Name == "" {
		return fmt.Errorf("missing name")
	}
	for _, e := range sp.Axes.Engine {
		if _, err := registry.Engine(e); err != nil {
			return err
		}
	}
	for _, w := range sp.Axes.Workload {
		if err := registry.ValidateWorkload(w); err != nil {
			return err
		}
	}
	for _, p := range sp.Axes.Policy {
		if _, err := registry.Policy(p); err != nil {
			return err
		}
	}
	for _, f := range sp.Axes.Faults {
		if err := registry.ValidateFaults(f); err != nil {
			return err
		}
	}
	for _, f := range sp.Axes.NetFaults {
		if err := registry.ValidateNetFaults(f); err != nil {
			return err
		}
	}
	for _, ws := range sp.Axes.WALSync {
		if err := validateWALSync(ws); err != nil {
			return err
		}
	}
	for _, m := range sp.Axes.Monitor {
		if err := registry.ValidateMonitor(m); err != nil {
			return err
		}
	}
	for _, n := range sp.Axes.Procs {
		if n <= 0 {
			return fmt.Errorf("procs axis value %d (want >= 1)", n)
		}
	}
	for _, n := range sp.Axes.Ops {
		if n <= 0 {
			return fmt.Errorf("ops axis value %d (want >= 1)", n)
		}
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
	for i, m := range sp.Exclude {
		if m.zero() {
			return fmt.Errorf("exclude[%d] is empty and would drop every cell", i)
		}
	}
	if err := uniqueAxes(sp.Axes); err != nil {
		return err
	}
	return nil
}

// uniqueAxes rejects repeated axis values: they would expand into cells
// with identical identities, which baseline diffing cannot tell apart.
// String axes compare resolved — "" and "sim" (or "" and "cas-counter")
// name the same coordinate and count as a repeat.
func uniqueAxes(a Axes) error {
	dup := func(axis string, vals []string, resolve func(string) string) error {
		seen := map[string]bool{}
		for _, v := range vals {
			r := resolve(v)
			if seen[r] {
				return fmt.Errorf("axis %s repeats value %q", axis, r)
			}
			seen[r] = true
		}
		return nil
	}
	canonEngine := func(v string) string {
		if c, err := registry.Engine(v); err == nil {
			return c
		}
		return v
	}
	if err := dup("engine", a.Engine, canonEngine); err != nil {
		return err
	}
	if err := dup("impl", a.Impl, func(v string) string { return resolved(v, scenario.DefaultImpl) }); err != nil {
		return err
	}
	if err := dup("workload", a.Workload, func(v string) string { return resolved(v, scenario.DefaultWorkload) }); err != nil {
		return err
	}
	if err := dup("policy", a.Policy, func(v string) string { return resolved(v, scenario.DefaultPolicy) }); err != nil {
		return err
	}
	if err := dup("faults", a.Faults, resolvedFaults); err != nil {
		return err
	}
	if err := dup("net-faults", a.NetFaults, resolvedNetFaults); err != nil {
		return err
	}
	if err := dup("wal-sync", a.WALSync, resolvedWALSync); err != nil {
		return err
	}
	if err := dup("monitor", a.Monitor, resolvedMonitor); err != nil {
		return err
	}
	ints := func(axis string, vals []int) error {
		seen := map[int]bool{}
		for _, v := range vals {
			if seen[v] {
				return fmt.Errorf("axis %s repeats value %d", axis, v)
			}
			seen[v] = true
		}
		return nil
	}
	if err := ints("procs", a.Procs); err != nil {
		return err
	}
	if err := ints("ops", a.Ops); err != nil {
		return err
	}
	if err := ints("tolerance", a.Tolerance); err != nil {
		return err
	}
	seen := map[int64]bool{}
	for _, v := range a.Seed {
		if seen[v] {
			return fmt.Errorf("axis seed repeats value %d", v)
		}
		seen[v] = true
	}
	return nil
}

// Expand resolves the cartesian product of the axes minus the exclusions,
// in deterministic axis order (engine, impl, workload, policy, faults,
// net-faults, wal-sync, monitor, procs, ops, tolerance, seed). It errors when
// nothing survives — an all-excluded grid is always a spec mistake.
func (sp *Spec) Expand() ([]Point, error) {
	engines := sp.Axes.Engine
	if len(engines) == 0 {
		engines = []string{""}
	}
	impls := orList(sp.Axes.Impl, scenario.DefaultImpl)
	workloads := orList(sp.Axes.Workload, scenario.DefaultWorkload)
	policies := orList(sp.Axes.Policy, scenario.DefaultPolicy)
	faultSpecs := orList(sp.Axes.Faults, "none")
	netFaultSpecs := orList(sp.Axes.NetFaults, "none")
	walSyncs := orList(sp.Axes.WALSync, "none")
	monitors := orList(sp.Axes.Monitor, "full")
	procs := orInts(sp.Axes.Procs, scenario.DefaultProcs)
	ops := orInts(sp.Axes.Ops, scenario.DefaultOps)
	tols := sp.Axes.Tolerance
	if len(tols) == 0 {
		tols = []int{0}
	}
	seeds := sp.Axes.Seed
	if len(seeds) == 0 {
		seeds = []int64{0}
	}

	var points []Point
	hits := make([]int, len(sp.Exclude))
	for _, e := range engines {
		canon, err := registry.Engine(e)
		if err != nil {
			return nil, err
		}
		for _, impl := range impls {
			for _, w := range workloads {
				for _, pol := range policies {
					for _, f := range faultSpecs {
						for _, nf := range netFaultSpecs {
							for _, ws := range walSyncs {
								for _, mon := range monitors {
									for _, n := range procs {
										for _, k := range ops {
											for _, t := range tols {
												for _, s := range seeds {
													p := Point{
														Engine: canon, Impl: resolved(impl, scenario.DefaultImpl), Workload: resolved(w, scenario.DefaultWorkload),
														Policy:    resolved(pol, scenario.DefaultPolicy),
														Faults:    faultsOrEmpty(resolvedFaults(f)),
														NetFaults: faultsOrEmpty(resolvedNetFaults(nf)),
														WALSync:   faultsOrEmpty(resolvedWALSync(ws)),
														Monitor:   monitorOrEmpty(resolvedMonitor(mon)),
														Procs:     n, Ops: k, Tolerance: t, Seed: s,
													}
													if sp.excluded(p, hits) {
														continue
													}
													points = append(points, p)
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
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

// excluded tests every predicate (not first-match), crediting each one
// that fires so Expand can report predicates that never do.
func (sp *Spec) excluded(p Point, hits []int) bool {
	drop := false
	for i, m := range sp.Exclude {
		if m.matches(p) {
			hits[i]++
			drop = true
		}
	}
	return drop
}

// Scenario builds the point's scenario with the spec-level knobs applied.
func (sp *Spec) Scenario(p Point) scenario.Scenario {
	s := scenario.Scenario{
		Impl:      p.Impl,
		Workload:  p.Workload,
		Policy:    p.Policy,
		Faults:    p.Faults,
		NetFaults: p.NetFaults,
		WALSync:   p.WALSync,
		Monitor:   p.Monitor,
		Procs:     p.Procs,
		Ops:       p.Ops,
		Tolerance: p.Tolerance,
		Seed:      p.Seed,
		Scheduler: sp.Scheduler,
		Chooser:   sp.Chooser,
		Analysis:  sp.Analysis,
		Stride:    sp.Stride,
		Workers:   sp.cellWorkers(),
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

// orList substitutes the scenario default for an empty string axis.
func orList(vals []string, def string) []string {
	if len(vals) == 0 {
		return []string{def}
	}
	return vals
}

func orInts(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

// resolved maps an explicitly empty axis value to its resolved name, so
// exclusion predicates and rollups share the cell-identity vocabulary.
func resolved(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// resolvedFaults canonicalizes a faults axis value: "", "none", presets
// and reordered grammar spellings of one spec all resolve to the same
// coordinate name ("none" when nothing is injected). Unresolvable values
// keep their spelling; Validate has already rejected them.
func resolvedFaults(v string) string {
	sp, err := registry.Faults(v)
	if err != nil {
		return v
	}
	return sp.String()
}

// faultsOrEmpty maps the "none" coordinate to the zero value, so
// unfaulted points — and the scenarios and repro commands built from
// them — are byte-identical with and without a faults axis in the spec.
func faultsOrEmpty(v string) string {
	if v == "none" {
		return ""
	}
	return v
}

// resolvedNetFaults canonicalizes a net-faults axis value, mirroring
// resolvedFaults: "", "none", presets and reordered grammar spellings of
// one spec all resolve to the same coordinate name.
func resolvedNetFaults(v string) string {
	sp, err := registry.NetFaults(v)
	if err != nil {
		return v
	}
	return sp.String()
}

// resolvedWALSync canonicalizes a wal-sync axis value. "" and "none" name
// the no-WAL coordinate; everything else resolves through the durability
// policy parser, so "interval:1" and "always" stay the distinct names the
// parser gives them. "none" (no log) and "never" (a log that is never
// fsynced) are deliberately different coordinates.
func resolvedWALSync(v string) string {
	if v == "" || v == "none" {
		return "none"
	}
	pol, err := wal.ParseSyncPolicy(v)
	if err != nil {
		return v
	}
	return pol.String()
}

// resolvedMonitor canonicalizes a monitor axis value: "" and "full" name
// the default sequential exhaustive monitor; the other forms resolve to
// the parser's canonical spelling. Unresolvable values keep their
// spelling; Validate has already rejected them.
func resolvedMonitor(v string) string {
	ms, err := registry.MonitorSpec(v)
	if err != nil {
		return v
	}
	return ms.String()
}

// monitorOrEmpty maps the "full" coordinate to the zero value, so
// default-monitor points — and the scenarios and repro commands built from
// them — are byte-identical with and without a monitor axis in the spec.
func monitorOrEmpty(v string) string {
	if v == "full" {
		return ""
	}
	return v
}

// validateWALSync rejects unknown wal-sync axis values at spec load.
func validateWALSync(v string) error {
	if v == "" || v == "none" {
		return nil
	}
	if _, err := wal.ParseSyncPolicy(v); err != nil {
		return fmt.Errorf("wal-sync axis value %q (want none, always, never or interval:N): %w", v, err)
	}
	return nil
}
