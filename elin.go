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
// This package re-exports exactly the names the example programs under
// examples/ and README.md use: a declarative Scenario run on any engine,
// and the history-checking, simulation and exploration calls beneath it.
// Everything else lives in the internal packages and is reached through
// the elin CLI (cmd/elin); TestFacadeNamesAreRead keeps the list honest.
package elin

import (
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Scenario layer — the declarative entry point. One Scenario value runs
// unchanged on every engine ("explore", "sim", "live", "serve") and every
// engine answers with the same unified Report (schema elin/report/v1).
type (
	// Scenario is one declarative description of an execution to check:
	// object/implementation by registry name or value, workload, scheduler,
	// checker options, tolerance, budget, workers, seed.
	Scenario = scenario.Scenario
	// ScenarioBudget bounds a scenario's execution per engine regime.
	ScenarioBudget = scenario.Budget
)

// RunScenario resolves the named engine ("" = sim) and executes the
// scenario on it.
var RunScenario = scenario.Run

// Specification layer.
type (
	// Op is an operation invocation (method name plus arguments).
	Op = spec.Op
	// Object pairs a type with an initial state.
	Object = spec.Object
	// FetchInc is the fetch&increment counter type.
	FetchInc = spec.FetchInc
)

// Checking and execution layers.
type (
	// Options tunes the decision procedures.
	Options = check.Options
	// Impl is an implementation of a shared object from base objects.
	Impl = machine.Impl
	// RunConfig describes one simulation run.
	RunConfig = sim.Config
	// ExploreConfig tunes exhaustive exploration (configuration
	// deduplication, worker parallelism, determinism checking).
	ExploreConfig = explore.Config
)

var (
	// MakeOp returns an operation with no arguments.
	MakeOp = spec.MakeOp
	// MakeOp1 returns an operation with one argument.
	MakeOp1 = spec.MakeOp1
	// NewObject pairs a type with its canonical initial state.
	NewObject = spec.NewObject
	// NewHistory returns an empty history.
	NewHistory = history.New

	// Linearizable checks linearizability per object (locality).
	Linearizable = check.Linearizable
	// MinT computes the least t making a history t-linearizable.
	MinT = check.MinT
	// WeaklyConsistent checks Definition 1 (locality per Lemma 8).
	WeaklyConsistent = check.WeaklyConsistent
	// TrackMinT measures MinT over growing prefixes and classifies the
	// trend — the finite-data instrument for Definitions 3/4.
	TrackMinT = check.TrackMinT

	// Run executes an implementation under a scheduler and records its
	// history.
	Run = sim.Run
	// NewSystem builds a live configuration for step-by-step control.
	NewSystem = sim.NewSystem
	// UniformWorkload builds an n-process workload repeating one
	// operation.
	UniformWorkload = sim.UniformWorkload
	// LinearizableEverywhere checks all bounded interleavings; the
	// violation witness is deterministic for every worker count.
	LinearizableEverywhere = explore.LinearizableEverywhere
)
