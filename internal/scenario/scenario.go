// Package scenario is the declarative entry point of the toolkit: one
// Scenario value — object/implementation, workload, scheduler, checker
// options, tolerance, budget, workers, seed — runs unchanged on every
// execution engine, and every engine answers with the same unified Report.
//
// The four engines cover the four regimes the repository implements:
//
//   - Explore: bounded exhaustive model checking of every interleaving
//     (and every weakly consistent response choice), with valency analysis
//     and stable-configuration search (packages explore/sim);
//   - Sim: one deterministic seeded simulation run under a named scheduler
//     and base-object adversary, checked after the fact (package sim);
//   - Live: real goroutine clients hammering a genuinely shared object
//     with online windowed monitoring, fuzzing and shrink-to-simulator
//     replay (package live);
//   - Serve: the same object behind a framed-TCP server, driven by a
//     retrying client fleet through the network fault plane, with the
//     online monitor running server-side (packages server/loadgen).
//
// Implementations, workloads, schedulers, choosers, policies and engines
// are all resolved by registry name, so adding one registry entry lights up
// every engine and the elin CLI at once; direct values (ImplValue,
// LiveValue) are accepted for programmatic use.
package scenario

import (
	"fmt"
	"strings"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/wal"
)

// Analysis names the exhaustive-exploration analyses of the Explore
// engine.
const (
	// AnalysisLin certifies linearizability of every bounded interleaving.
	AnalysisLin = "lin"
	// AnalysisWeak certifies weak consistency of every bounded
	// interleaving.
	AnalysisWeak = "weak"
	// AnalysisValency runs the Proposition 15 valency analysis.
	AnalysisValency = "valency"
	// AnalysisStable searches for a Proposition 18 stable configuration.
	AnalysisStable = "stable"
)

// The documented scenario defaults. The coordinate table (Coords) carries
// them too, so an omitted sweep axis resolves to exactly what a bare
// scenario runs.
const (
	// DefaultImpl is the implementation an empty Impl resolves to.
	DefaultImpl = "cas-counter"
	// DefaultWorkload is the workload an empty Workload resolves to.
	DefaultWorkload = "default"
	// DefaultPolicy is the policy an empty Policy resolves to.
	DefaultPolicy = "immediate"
	// DefaultProcs/DefaultOps are the process and per-process operation
	// counts when unset.
	DefaultProcs = 2
	DefaultOps   = 2
)

// Budget bounds a scenario's execution per engine regime. The zero value
// picks sensible defaults everywhere.
type Budget struct {
	// Depth is the exploration horizon in atomic steps (Explore; default
	// 16).
	Depth int `json:"depth,omitempty"`
	// VerifyDepth is the stability-verification horizon of the stable
	// search (Explore with AnalysisStable; default 14).
	VerifyDepth int `json:"verify_depth,omitempty"`
	// MaxSteps bounds a simulation run (Sim; 0 = the sim default, 1<<16).
	MaxSteps int `json:"max_steps,omitempty"`
}

// Scenario is one declarative description of an execution to check. The
// zero value of every field is meaningful: an empty scenario explores the
// default implementation under the default workload.
type Scenario struct {
	// Name optionally labels the scenario in reports.
	Name string

	// Impl names the object under test in the registry ("cas-counter",
	// "warmup-counter:8", ...). The Live engine additionally accepts the
	// live-native objects ("atomic-fi", "junk-fi:40", ...); registry
	// implementation names run live through the mutex-serialized
	// step-machine adapter. Default "cas-counter".
	Impl string
	// ImplValue overrides Impl with a direct implementation value for the
	// Explore and Sim engines.
	ImplValue machine.Impl
	// LiveValue overrides Impl with a direct object value for the Live
	// engine.
	LiveValue live.Object

	// Workload names the operation mix: "default", "uniform:OP", "rw:P".
	Workload string
	// Procs is the number of processes (Explore, Sim) or client goroutines
	// (Live). Default 2.
	Procs int
	// Ops is the number of operations per process/client. Default 2.
	Ops int

	// Scheduler names the Sim scheduler ("rr", "random", "solo:P",
	// "burst:N"). The Explore engine quantifies over all schedules and the
	// Live engine schedules for real, so both ignore it.
	Scheduler string
	// Chooser names the Sim base-object response adversary ("true",
	// "stale", "mix:P"). Explore quantifies over all choices; Live draws
	// choices from the seed.
	Chooser string
	// Policy names the stabilization policy of eventually linearizable
	// bases ("immediate", "never", "window:K"). Default "immediate".
	Policy string

	// Analysis selects the Explore engine's analysis (AnalysisLin,
	// AnalysisWeak, AnalysisValency, AnalysisStable). Default AnalysisLin.
	// The other engines ignore it.
	Analysis string

	// Tolerance is the t-linearizability tolerance of the verdict: Sim
	// reports a violation when the recorded history's MinT exceeds it, Live
	// when a monitor window's MinT does. 0 demands linearizability;
	// negative means observe-only (trend watching, never a violation).
	// Explore's analyses have their own verdicts and ignore it.
	Tolerance int
	// Budget bounds the execution.
	Budget Budget
	// Check tunes the decision procedures everywhere.
	Check check.Options
	// Workers is the exploration worker count (Explore; 0 = GOMAXPROCS).
	Workers int
	// Seed pins all randomness (Sim scheduling/choosing, Live per-client
	// streams and response choices).
	Seed int64

	// Dedup merges equivalent configurations during AnalysisValency.
	Dedup bool
	// CheckDeterminism re-steps every exploration probe on a second clone
	// (Explore; catches nondeterministic implementations).
	CheckDeterminism bool

	// Rate switches the Live engine to open-loop mode: each client issues
	// operations at Rate ops/second. 0 means closed loop.
	Rate float64
	// Stride is the online monitor's window stride in events (Live) and
	// the MinT-trend stride (Sim). 0 picks automatically.
	Stride int
	// LatencySample records one latency sample every N operations per
	// client (Live and Serve). 0 picks live.LatencyStride's power of two:
	// at least 1 024 samples per client, every operation below 2 048 ops.
	LatencySample int
	// Monitor names the online monitor implementation for the Live and
	// Serve engines: "full" (default), "sample:N", or "none"
	// (record only; pure throughput). Empty means full. Echoed in
	// the report header and the campaign cell identity when non-default.
	Monitor string
	// NoCheck skips the after-the-fact decision procedures and MinT trend
	// of the Sim engine: the run executes and records only (history
	// export, raw timing). The verdict is always ok.
	NoCheck bool
	// Faults names a fault-injection spec for the Live engine: a registry
	// preset ("chaos", "stall-one", ...) or the faults grammar directly
	// ("stall:0@64+256,crash:5000,jitter:20,flip"). Empty or "none" injects
	// nothing. The Explore and Sim engines reject faulted scenarios: their
	// regimes already quantify over (or deterministically pick) schedules,
	// so wall-clock fault injection is meaningless there.
	Faults string
	// NetFaults names a network fault spec for the Serve engine: a registry
	// preset ("flaky-net", "partition-heal", ...) or the net-faults grammar
	// directly ("drop:0@40,slow:2:200,partition:120+40"). Empty or "none"
	// injects nothing. Every other engine rejects it: only the networked
	// runtime has connections to drop, sever or slow.
	NetFaults string
	// WAL, when non-empty, is a filesystem path the Live and Serve engines
	// write a durable commit log to (package wal), one CRC-framed record per
	// merged history event in commit order.
	WAL string
	// WALSync names the WAL durability policy: "always", "never" (default),
	// or "interval:N" (fsync every N appends).
	WALSync string
	// Serial switches the Live engine to the deterministic serial driver:
	// clients take round-robin turns on one goroutine, so the merged
	// history — and any WAL written from it — is byte-identical across
	// reruns of the same configuration. Faults retain their semantics
	// (stalls skip turns, jitter defers them, crashes cut the run).
	Serial bool
	// FuzzRuns, when positive, turns the Live engine into a fuzz campaign
	// over FuzzRuns consecutive seeds.
	FuzzRuns int
	// NoShrink reports a Live violation as-is instead of ddmin-shrinking
	// and sim-confirming it.
	NoShrink bool
	// NoVerify skips the byte-identical replay verification of a clean
	// Live run.
	NoVerify bool
}

// withDefaults returns s with the documented defaults filled in.
func (s Scenario) withDefaults() Scenario {
	if s.Impl == "" && s.ImplValue == nil && s.LiveValue == nil {
		s.Impl = DefaultImpl
	}
	if s.Procs <= 0 {
		s.Procs = DefaultProcs
	}
	if s.Ops <= 0 {
		s.Ops = DefaultOps
	}
	if s.Analysis == "" {
		s.Analysis = AnalysisLin
	}
	if s.Budget.Depth <= 0 {
		s.Budget.Depth = 16
	}
	if s.Budget.VerifyDepth <= 0 {
		s.Budget.VerifyDepth = 14
	}
	return s
}

// resolveImpl resolves the step-machine implementation of the Explore and
// Sim engines.
func (s Scenario) resolveImpl() (machine.Impl, error) {
	if s.ImplValue != nil {
		return s.ImplValue, nil
	}
	return registry.Impl(s.Impl)
}

// resolvePolicy resolves the stabilization policy.
func (s Scenario) resolvePolicy() (base.Policy, error) {
	return registry.Policy(s.Policy)
}

// implName names the object under test for reports.
func (s Scenario) implName() string {
	switch {
	case s.ImplValue != nil:
		return s.ImplValue.Name()
	case s.LiveValue != nil:
		return s.LiveValue.Name()
	default:
		return s.Impl
	}
}

// Engine executes scenarios in one regime. Implementations are stateless
// values; the same Scenario may be handed to every engine.
type Engine interface {
	// Name is the engine's registry name ("explore", "sim", "live").
	Name() string
	// Run executes the scenario and reports.
	Run(s Scenario) (*Report, error)
}

// Engines returns every engine, in registry-name order.
func Engines() []Engine { return []Engine{Explore{}, Live{}, Serve{}, Sim{}} }

// EngineByName resolves an engine by registry name ("" defaults to "sim").
func EngineByName(name string) (Engine, error) {
	canon, err := registry.Engine(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "explore":
		return Explore{}, nil
	case "live":
		return Live{}, nil
	case "serve":
		return Serve{}, nil
	default:
		return Sim{}, nil
	}
}

// Run resolves the named engine and executes s on it — the one-call form
// the CLI uses.
func Run(engine string, s Scenario) (*Report, error) {
	e, err := EngineByName(engine)
	if err != nil {
		return nil, err
	}
	return e.Run(s)
}

// buildSystem constructs the simulation root for the Explore engine.
func buildSystem(s Scenario) (*sim.System, machine.Impl, error) {
	impl, err := s.resolveImpl()
	if err != nil {
		return nil, nil, err
	}
	workload, err := registry.WorkloadByName(s.Workload, impl, s.Procs, s.Ops)
	if err != nil {
		return nil, nil, err
	}
	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, nil, err
	}
	root, err := sim.NewSystem(impl, workload, base.SamePolicy(policy), s.Check, false)
	if err != nil {
		return nil, nil, err
	}
	return root, impl, nil
}

// info echoes the resolved scenario into a report: every coordinate of the
// table in its canonical stored form, plus the knobs only one engine reads.
func (s Scenario) info(engine string) ScenarioInfo {
	if s.WAL != "" && s.WALSync == "" {
		// A log with no stated policy is never fsynced — which is not the
		// no-log coordinate the empty value otherwise names.
		s.WALSync = wal.SyncNever.String()
	}
	inf := ScenarioInfo{Name: s.Name}
	for _, c := range Coords[1:] {
		c.Set(&inf, c.name(&s))
	}
	inf.Impl = s.implName() // a direct value names itself
	switch engine {
	case "explore":
		inf.Analysis = s.Analysis
		inf.Depth = s.Budget.Depth
		if s.Analysis == AnalysisStable {
			inf.VerifyDepth = s.Budget.VerifyDepth
		}
		inf.Workers = s.Workers
	case "sim":
		inf.Scheduler = orDefault(s.Scheduler, "rr")
		inf.Chooser = orDefault(s.Chooser, "true")
		inf.MaxSteps = s.Budget.MaxSteps
	case "live":
		inf.Serial = s.Serial
	}
	return inf
}

// resolveFaults resolves the fault spec: a registry preset name or the
// faults grammar. nil means no injection.
func (s Scenario) resolveFaults() (*faults.Spec, error) {
	return registry.Faults(s.Faults)
}

// rejectLiveOnly errors when a scenario carries live-only features into
// another engine. Explore quantifies over every schedule and Sim picks one
// deterministically, so wall-clock fault injection, commit logging and the
// serial driver have no meaning there — silently ignoring them would make
// a faulted campaign axis lie about what its explore/sim cells ran.
func (s Scenario) rejectLiveOnly(engine string) error {
	switch {
	case s.Faults != "" && s.Faults != "none":
		return fmt.Errorf("scenario: faults %q are a live-engine feature; engine %q rejects them (exclude faulted cells from %s sweeps)", s.Faults, engine, engine)
	case s.NetFaults != "" && s.NetFaults != "none":
		return fmt.Errorf("scenario: net-faults %q are a serve-engine feature; engine %q rejects them", s.NetFaults, engine)
	case s.WAL != "" || s.WALSync != "":
		return fmt.Errorf("scenario: WAL commit logging is a live/serve-engine feature; engine %q rejects it", engine)
	case s.Serial:
		return fmt.Errorf("scenario: the serial driver is a live-engine feature; engine %q rejects it", engine)
	case s.Monitor != "" && s.Monitor != "full":
		return fmt.Errorf("scenario: monitor %q selects the online monitor, a live/serve-engine feature; engine %q rejects it (exclude monitor cells from %s sweeps)", s.Monitor, engine, engine)
	}
	return nil
}

// rejectNonServe errors when a scenario carries another regime's features
// into the Serve engine: the process fault plane (stalls, crashes, jitter,
// flips) acts inside live.Run's client goroutines, which a networked run
// does not have — its fault plane is NetFaults, acting on connections.
func (s Scenario) rejectNonServe() error {
	switch {
	case s.Faults != "" && s.Faults != "none":
		return fmt.Errorf("scenario: process faults %q are a live-engine feature; the serve engine's fault plane is NetFaults", s.Faults)
	case s.Serial:
		return fmt.Errorf("scenario: the serial driver is a live-engine feature; the serve engine rejects it")
	case s.FuzzRuns > 0:
		return fmt.Errorf("scenario: fuzz campaigns are a live-engine feature; the serve engine rejects them")
	}
	return nil
}

// monitorOff reports whether the resolved monitor spec is the record-only
// "none"; reporting branches on it for the monitoring-disabled shape.
func (s Scenario) monitorOff() bool {
	ms, err := registry.MonitorSpec(s.Monitor)
	return err == nil && ms.Kind == check.MonitorNone
}

// Info returns the resolved scenario echo a report for the named engine
// would carry, defaults filled in — the same projection executed cells
// embed, available without running anything (campaign uses it to build
// rerun commands for cells that never produced a report).
func (s Scenario) Info(engine string) ScenarioInfo {
	canon, err := registry.Engine(engine)
	if err != nil {
		canon = engine
	}
	return s.withDefaults().info(canon)
}

// CellID returns the canonical identity of the scenario as one cell of a
// campaign grid on the named engine: every coordinate of the table under
// its id key — names first, options only when not at their default, sizes
// last — with the engine's own resolved knobs (analysis for explore,
// scheduler and chooser for sim) in between. Defaults are filled in first,
// so Workload "" and "default" — or Engine "" and "sim" — name the same
// cell. Two scenarios with equal CellIDs occupy the same grid point, which
// is what campaign baseline diffing matches on across runs and commits.
func (s Scenario) CellID(engine string) string {
	canon, err := registry.Engine(engine)
	if err != nil {
		canon = engine // unknown engines keep their spelling; resolution rejects them later
	}
	return s.withDefaults().info(canon).cellID(canon)
}

// CellID is the identity of the cell the report's scenario occupies.
func (r *Report) CellID() string { return r.Scenario.cellID(r.Engine) }

func (inf ScenarioInfo) cellID(engine string) string {
	var names, sizes strings.Builder
	fmt.Fprintf(&names, "%s=%s", Coords[0].Key, engine)
	for _, c := range Coords[1:] {
		switch v := c.Get(&inf); {
		case c.Kind == CoordSize:
			fmt.Fprintf(&sizes, " %s=%s", c.Key, v)
		case c.Kind == CoordName || v != "":
			fmt.Fprintf(&names, " %s=%s", c.Key, v)
		}
	}
	if inf.Analysis != "" {
		fmt.Fprintf(&names, " analysis=%s", inf.Analysis)
	}
	if inf.Scheduler != "" {
		fmt.Fprintf(&names, " sched=%s chooser=%s", inf.Scheduler, inf.Chooser)
	}
	return names.String() + sizes.String()
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
