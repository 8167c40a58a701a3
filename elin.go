// Package elin is a verification and simulation toolkit for eventual
// linearizability in asynchronous shared memory, reproducing Guerraoui &
// Ruppert, "A Paradox of Eventual Linearizability in Shared Memory"
// (PODC 2014).
//
// The library provides:
//
//   - sequential specifications of shared-object types (registers,
//     fetch&increment, consensus, test&set, compare&swap, queues, ...);
//   - histories with invocation/response events, projections and
//     serialization;
//   - decision procedures for linearizability, t-linearizability
//     (Definition 2), weak consistency (Definition 1), and a MinT monitor
//     that classifies eventual-linearizability behaviour on growing
//     prefixes (Definitions 3/4);
//   - an implementation model (deterministic step machines over shared
//     base objects), linearizable and eventually linearizable base-object
//     substrates, randomized/adversarial schedulers, and a bounded
//     exhaustive model checker with valency analysis (Proposition 15) and
//     stable-configuration search (Proposition 18);
//   - the paper's algorithms and constructions: the Figure 1
//     announce/verify wrapper (Proposition 11), consensus from eventually
//     linearizable registers (Proposition 16), the communication-free
//     test&set, the local-copy construction (Theorem 12), the
//     stable-configuration transformation (Proposition 18), and the
//     triviality decision procedure (Proposition 14).
//
// This package is the façade: it re-exports the surface most users need.
// The full API lives in the internal packages and is exercised by the
// example programs under examples/ and the experiment suite in
// cmd/elin (elin bench).
package elin

import (
	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/campaign"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/compare"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// Scenario layer — the declarative entry point. One Scenario value runs
// unchanged on every engine (Explore, Sim, Live, Serve) and every engine
// answers with the same unified Report; the elin CLI is a thin shell over
// exactly this surface.
type (
	// Scenario is one declarative description of an execution to check:
	// object/implementation by registry name or value, workload, scheduler,
	// checker options, tolerance, budget, workers, seed.
	Scenario = scenario.Scenario
	// ScenarioBudget bounds a scenario's execution per engine regime.
	ScenarioBudget = scenario.Budget
	// Engine executes scenarios in one regime ("explore", "sim", "live",
	// "serve").
	Engine = scenario.Engine
	// Report is the unified outcome every engine returns; its JSON
	// encoding is stable (schema elin/report/v1) and golden-tested.
	Report = scenario.Report
)

// Scenario verdicts and Explore-engine analyses.
const (
	VerdictOK        = scenario.VerdictOK
	VerdictViolation = scenario.VerdictViolation
	AnalysisLin      = scenario.AnalysisLin
	AnalysisWeak     = scenario.AnalysisWeak
	AnalysisValency  = scenario.AnalysisValency
	AnalysisStable   = scenario.AnalysisStable
)

var (
	// RunScenario resolves the named engine ("" = sim) and executes the
	// scenario on it.
	RunScenario = scenario.Run
	// Engines returns every scenario engine.
	Engines = scenario.Engines
	// EngineByName resolves a scenario engine by registry name.
	EngineByName = scenario.EngineByName
)

// Campaign layer — declarative sweep grids over scenarios. One Sweep
// names axes (engine, impl, workload, policy, procs, ops, tolerance,
// seed) with exclusion predicates; RunSweep expands the grid and executes
// every cell on one shared bounded pool into a Campaign report (schema
// elin/campaign/v1) whose canonical form is byte-stable; CompareCampaigns
// classifies a campaign against a baseline (same/flip/new/missing) and its
// Gate is the CI regression check `elin sweep -baseline` exits non-zero on.
type (
	// Sweep is one declarative scenario-grid specification (schema
	// elin/sweep/v1).
	Sweep = campaign.Spec
	// SweepAxes are the sweep dimensions.
	SweepAxes = campaign.Axes
	// SweepMatch is an exclusion predicate over grid coordinates.
	SweepMatch = campaign.Match
	// Campaign is the aggregated outcome of one sweep: per-cell verdicts
	// and Reports, rollups by axis, timing percentiles.
	Campaign = campaign.Campaign
	// CampaignCell is one executed grid point.
	CampaignCell = campaign.Cell
	// CampaignDiff classifies a campaign against a baseline.
	CampaignDiff = campaign.Diff
	// Timing is the shared machine-readable timing record (BENCH_*.json
	// trajectories and campaign cells alike).
	Timing = scenario.Timing
)

var (
	// RunSweep expands and executes a sweep on a shared worker pool.
	RunSweep = campaign.Run
	// LoadSweep reads and validates a sweep spec file.
	LoadSweep = campaign.LoadSpec
	// LoadCampaign reads a campaign report file (e.g. a committed
	// baseline).
	LoadCampaign = campaign.Load
	// CompareCampaigns diffs a campaign against a baseline campaign.
	CompareCampaigns = campaign.Compare
)

// Comparison layer — head-to-head of two implementation families over
// matched grid cells (schema elin/compare/v1). Cells pair by their
// family-blind identity (the cell ID with impl=* wildcarded) and the
// winner ladder is deterministic-only: verdict, then trend class, then
// final MinT, then stabilization point — throughput is reported but
// never decides. The canonical form zeroes throughput and is
// byte-stable, the committed-report contract `elin compare -canonical`
// emits.
type (
	// Comparison is one head-to-head report over matched grid cells.
	Comparison = compare.Report
	// ComparisonCell is one matched pair of cells with its winner.
	ComparisonCell = compare.Cell
)

var (
	// CompareFamilies pairs the cells of two separately swept campaigns.
	CompareFamilies = compare.Campaigns
	// SplitFamilies splits one mixed-grid campaign into two sides by
	// implementation lists and pairs the matched cells.
	SplitFamilies = compare.Split
)

// Specification layer.
type (
	// Op is an operation invocation (method name plus arguments).
	Op = spec.Op
	// State is an immutable, comparable object state.
	State = spec.State
	// Outcome is one (response, next state) pair of a transition relation.
	Outcome = spec.Outcome
	// Type is a sequential object type (Q, Q0, INV, RES, delta).
	Type = spec.Type
	// Object pairs a type with an initial state.
	Object = spec.Object

	// Register is a read/write register type.
	Register = spec.Register
	// FetchInc is the fetch&increment counter type.
	FetchInc = spec.FetchInc
	// Consensus is the one-shot consensus type.
	Consensus = spec.Consensus
	// TestSet is the test&set type.
	TestSet = spec.TestSet
	// CAS is the compare&swap type.
	CAS = spec.CAS
	// Queue is the FIFO queue type.
	Queue = spec.Queue
	// MaxRegister is the max-register type.
	MaxRegister = spec.MaxRegister
)

// History layer.
type (
	// History is a well-formed finite history of invocation and response
	// events.
	History = history.History
	// Event is a single event <p, o, x>.
	Event = history.Event
	// Operation is an invocation with its matching response, if any.
	Operation = history.Operation
)

// Checking layer.
type (
	// Options tunes the decision procedures.
	Options = check.Options
	// Verdict is a TrackMinT result.
	Verdict = check.Verdict
	// Sample is one (prefix length, MinT) measurement.
	Sample = check.Sample
	// Trend classifies MinT growth.
	Trend = check.Trend
	// Monitor is the online windowed t-linearizability monitor interface: a
	// growing history is fed event by event and checked window by window.
	// IncrementalMonitor is the one implementation. Record-only is not a
	// Monitor: under spec "none" the runtime's commit pipeline holds no
	// monitor at all.
	Monitor = check.Monitor
	// IncrementalMonitor is the windowed monitor: window checks run inline
	// or, under spec shard:K, on a pool of K workers with identical results.
	IncrementalMonitor = check.Incremental
	// MonitorConfig tunes the online monitor (stride, tolerance).
	MonitorConfig = check.IncrementalConfig
	// MonitorSpec is a parsed monitor selection (full | sample:N | shard:K
	// | none).
	MonitorSpec = check.MonitorSpec
	// WindowViolation is an online monitor stop: the offending window as a
	// standalone, rebased history.
	WindowViolation = check.WindowViolation
)

// Trend values re-exported for callers of TrackMinT.
const (
	TrendStabilized   = check.TrendStabilized
	TrendDiverging    = check.TrendDiverging
	TrendInconclusive = check.TrendInconclusive
)

// Monitor spec kinds re-exported for callers of NewMonitor.
const (
	MonitorFull        = check.MonitorFull
	MonitorSample      = check.MonitorSample
	MonitorShardWindow = check.MonitorShardWindow
	MonitorNone        = check.MonitorNone
)

// Execution layer.
type (
	// Impl is an implementation of a shared object from base objects.
	Impl = machine.Impl
	// Process is one process's deterministic step machine.
	Process = machine.Process
	// Action is a process's next step (base invocation or return).
	Action = machine.Action
	// Base describes one shared base object of an implementation.
	Base = machine.Base
	// System is a live configuration of an execution.
	System = sim.System
	// RunConfig describes one simulation run.
	RunConfig = sim.Config
	// RunResult is a simulation run's outcome.
	RunResult = sim.Result
	// Scheduler picks which process steps next.
	Scheduler = sim.Scheduler
	// Policy decides when an eventually linearizable base stabilizes.
	Policy = base.Policy
	// ExploreConfig tunes exhaustive exploration (configuration
	// deduplication, worker parallelism, determinism checking).
	ExploreConfig = explore.Config
	// ExploreStats aggregates exploration counters.
	ExploreStats = explore.Stats
)

// Operation constructors.
var (
	// MakeOp returns an operation with no arguments.
	MakeOp = spec.MakeOp
	// MakeOp1 returns an operation with one argument.
	MakeOp1 = spec.MakeOp1
	// MakeOp2 returns an operation with two arguments.
	MakeOp2 = spec.MakeOp2
	// ParseOp parses an operation from its string form.
	ParseOp = spec.ParseOp
	// NewObject pairs a type with its canonical initial state.
	NewObject = spec.NewObject
)

// History constructors and serialization.
var (
	// NewHistory returns an empty history.
	NewHistory = history.New
	// HistoryFromEvents validates and builds a history.
	HistoryFromEvents = history.FromEvents
	// ReadHistoryText parses the compact text serialization.
	ReadHistoryText = history.ReadText
)

// Decision procedures.
var (
	// Legal reports legality of a sequential history.
	Legal = check.Legal
	// Linearizable checks linearizability per object (locality).
	Linearizable = check.Linearizable
	// TLinearizable checks Definition 2 on a single-object history.
	TLinearizable = check.TLinearizable
	// MinT computes the least t making a history t-linearizable.
	MinT = check.MinT
	// MinTLocal computes per-object t_o values (Lemma 7).
	MinTLocal = check.MinTLocal
	// WeaklyConsistent checks Definition 1 (locality per Lemma 8).
	WeaklyConsistent = check.WeaklyConsistent
	// WeakResponses enumerates the Definition 1 candidate responses for a
	// pending operation.
	WeakResponses = check.WeakResponses
	// TrackMinT measures MinT over growing prefixes and classifies the
	// trend — the finite-data instrument for Definitions 3/4.
	TrackMinT = check.TrackMinT
	// NewMonitor builds the monitor a parsed spec selects (full, sampling
	// or pooled; "none" is an error) for a single-object history.
	NewMonitor = check.NewMonitor
	// ParseMonitorSpec parses the monitor spec vocabulary ("full",
	// "sample:N", "shard:K", "none").
	ParseMonitorSpec = check.ParseMonitorSpec
	// ClassifyTrend labels the growth trend of a MinT sample series.
	ClassifyTrend = check.Classify
)

// Execution and exploration.
var (
	// Run executes an implementation under a scheduler and records its
	// history.
	Run = sim.Run
	// NewSystem builds a live configuration for step-by-step control.
	NewSystem = sim.NewSystem
	// UniformWorkload builds an n-process workload repeating one
	// operation.
	UniformWorkload = sim.UniformWorkload
	// ExploreDFS walks every interleaving to a depth bound using the
	// in-place advance/undo engine; ExploreConfig selects dedup and worker
	// parallelism (the zero value keeps the walk sequential, safe for
	// stateful visitors).
	ExploreDFS = explore.DFS
	// ExploreLeaves enumerates the leaf configurations of the bounded
	// execution tree (worker parallelism fans subtrees out across cores).
	ExploreLeaves = explore.Leaves
	// LinearizableEverywhere checks all bounded interleavings; the
	// violation witness is deterministic for every worker count.
	LinearizableEverywhere = explore.LinearizableEverywhere
	// WeaklyConsistentEverywhere checks weak consistency of all bounded
	// interleavings; the violation witness is deterministic for every
	// worker count.
	WeaklyConsistentEverywhere = explore.WeaklyConsistentEverywhere
	// AnalyzeValency performs the Proposition 15 valency analysis
	// (configuration deduplication merges symmetric interleavings; worker
	// parallelism classifies subtrees concurrently).
	AnalyzeValency = explore.Analyze
	// FindStable searches for a Proposition 18 stable configuration
	// (worker parallelism pipelines the per-candidate stability
	// verifications).
	FindStable = explore.FindStable
)

// Live concurrent runtime: real goroutine clients against genuinely shared
// objects, with online monitoring and shrink-to-simulator replay.
type (
	// LiveObject is a concurrency-safe shared object driven by goroutine
	// clients.
	LiveObject = live.Object
	// LiveConfig describes one live stress run.
	LiveConfig = live.Config
	// LiveResult is a live run's outcome (merged history, throughput,
	// latency percentiles, monitor verdict).
	LiveResult = live.Result
	// LiveOpGen generates client operations from per-client RNG streams.
	LiveOpGen = live.OpGen
	// FuzzConfig drives a seeded fuzz campaign over live runs.
	FuzzConfig = live.FuzzConfig
	// FuzzResult is a fuzz campaign's outcome.
	FuzzResult = live.FuzzResult
	// ShrunkWitness is a ddmin-minimized, simulator-confirmed
	// counterexample.
	ShrunkWitness = live.Witness
	// ReplayConfig describes a commit-order replay of a recorded history
	// inside the deterministic simulator.
	ReplayConfig = sim.ReplayConfig
	// ReplayResult reports a commit-order replay (divergence pinpoints the
	// first out-of-model response).
	ReplayResult = sim.ReplayResult
)

var (
	// LiveRun executes one live stress run.
	LiveRun = live.Run
	// LiveReplay re-executes a merged history serially, re-deriving every
	// response from the recorded commit order.
	LiveReplay = live.Replay
	// LiveVerify checks that a recorded run replays byte-identically.
	LiveVerify = live.Verify
	// LiveFuzz runs a seeded fuzz campaign with shrink-to-sim on the first
	// violation.
	LiveFuzz = live.Fuzz
	// ShrinkViolation minimizes a monitor violation by delta debugging,
	// confirming every step in the deterministic simulator.
	ShrinkViolation = live.Shrink
	// NewAtomicFetchInc returns the lock-free live counter.
	NewAtomicFetchInc = live.NewAtomicFetchInc
	// NewSerialized wraps an atomic base object in a mutex for live runs.
	NewSerialized = live.NewSerialized
	// NewSerializedEventual wraps an eventually linearizable base object
	// for live runs.
	NewSerializedEventual = live.NewSerializedEventual
	// NewJunkFetchInc returns the injected-bug counter that loses
	// increments past its stick value (monitor/shrink pipeline demos).
	NewJunkFetchInc = live.NewJunkFetchInc
	// SimReplay re-executes a recorded history commit-order inside the
	// deterministic simulator.
	SimReplay = sim.Replay
)

// Fault plane and durable commit log: seeded deterministic fault injection
// into the live runtime (stalls, crash-at-commit, scheduling jitter, log
// corruption), a CRC-framed write-ahead commit log, and crash recovery
// that replays the log, verifies commit determinism, and stitches the
// recovered history into a continuation run.
type (
	// FaultSpec is a parsed fault-injection spec; all draws are pure
	// functions of (seed, ticket), so injections replay identically.
	FaultSpec = faults.Spec
	// FaultStall freezes one client for a window of commit tickets.
	FaultStall = faults.Stall
	// FaultCorrupt describes commit-log corruption (bit flip, truncation).
	FaultCorrupt = faults.Corrupt
	// CommitSink receives each merged history event with its commit ticket
	// as it is appended — the storage seam of the live runtime.
	CommitSink = live.CommitSink
	// WAL is the durable commit log (implements CommitSink).
	WAL = wal.Log
	// WALHeader is the self-describing run metadata a commit log opens
	// with; recovery rebuilds the run from it.
	WALHeader = wal.Header
	// WALRecovered is what RecoverWAL salvages from a commit log: header,
	// frame count, last commit ticket, whether the tail was torn, and the
	// validated frames themselves — range over its All() for the events and
	// their merge positions, decoded on demand, as often as needed.
	WALRecovered = wal.Recovered
	// WALSyncPolicy governs fsync frequency (always, never, every N).
	WALSyncPolicy = wal.SyncPolicy
	// ResumeResult is a run rebuilt from its commit log, ready to continue.
	ResumeResult = live.ResumeResult
)

var (
	// ParseFaults parses the fault grammar
	// ("stall:C@T+D,crash:K,jitter:N,flip").
	ParseFaults = faults.Parse
	// CreateWAL opens a new commit log with a header frame.
	CreateWAL = wal.Create
	// RecoverWAL reads a commit log back once, validating every frame and
	// truncating any torn tail at the first bad one; the result's All()
	// iterates the events and stays usable after the file is gone.
	RecoverWAL = wal.Recover
	// ParseSyncPolicy parses "always", "never" or "interval:N".
	ParseSyncPolicy = wal.ParseSyncPolicy
	// LiveResume replays a recovered commit log against a fresh template,
	// verifying every recorded response, and returns the rebuilt state.
	LiveResume = live.Resume
	// RecoverScenario runs the full crash-recovery pipeline: recover the
	// log, resume the object, continue with fresh clients, and verify the
	// stitched history still t-stabilizes.
	RecoverScenario = scenario.Recover
)

// Networked runtime — the serve engine's building blocks: a framed-TCP
// object server with a seeded network fault plane and a monitor that
// degrades to sampling under overload, plus a retrying client fleet with
// jittered exponential backoff and idempotent resume (exactly-once across
// reconnects). RunScenario("serve", s) composes the two; these exports are
// for embedding either half directly.
type (
	// Server is the long-lived framed-TCP object server.
	Server = server.Server
	// ServerConfig describes one server instance (object, client id space,
	// monitor, network faults, commit sink).
	ServerConfig = server.Config
	// ServerSummary is a finished server run: merged history, monitor
	// verdict, overload/sampling counters.
	ServerSummary = server.Summary
	// LoadConfig describes a client-fleet run against one server.
	LoadConfig = loadgen.Config
	// LoadResult is what a fleet run produced: the exactly-once ledger
	// (lost/duplicated), retry counters, latency percentiles.
	LoadResult = loadgen.Result
	// NetFaultSpec is a parsed network fault spec; injections are pure
	// functions of (seed, commit ticket) at the connection seam.
	NetFaultSpec = faults.NetSpec
)

var (
	// NewServer builds a server from its config.
	NewServer = server.New
	// RunLoad drives a retrying client fleet at a server and verifies the
	// exactly-once contract.
	RunLoad = loadgen.Run
	// LoadBackoff is the deterministic reconnect schedule (exponential
	// with splitmix64 jitter, a pure function of seed/client/attempt).
	LoadBackoff = loadgen.Backoff
	// ParseNetFaults parses the network fault grammar
	// ("drop:C@T,partition:T+D,slow:C:LAT").
	ParseNetFaults = faults.ParseNet
	// BuildServer resolves a Scenario into a ready-to-Serve server — the
	// construction half of the serve engine.
	BuildServer = scenario.BuildServer
)
