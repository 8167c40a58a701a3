package explore

import (
	"errors"
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/sim"
)

// StableResult describes a stable configuration found by FindStable.
type StableResult struct {
	// System is the configuration C (a clone; safe to keep and advance).
	System *sim.System
	// Depth is C's depth in the execution tree.
	Depth int
	// T is |αC| measured in implemented-level history events: every
	// bounded extension of C is T-linearizable.
	T int
	// VerifyStats aggregates the verification exploration of C's subtree.
	VerifyStats Stats
	// NodesSearched counts configurations examined before C was found.
	NodesSearched int
}

// NodeStable reports whether every leaf history within verifyDepth below
// node is t-linearizable for t = node's current history length — the
// bounded-evidence version of the paper's "stable" (Proposition 18): "every
// execution with prefix αC is |αC|-linearizable". By the prefix closure of
// t-linearizability (Lemma 6), checking the maximal (leaf) extensions
// covers every intermediate configuration.
//
// The verdict is deterministic for every worker count; the returned Stats
// cover the full subtree only when the node IS stable (a violation aborts
// the walk early, and under parallel workers the abort point is
// schedule-dependent).
func NodeStable(node *sim.System, verifyDepth int, cfg Config, opts check.Options) (bool, Stats, error) {
	found, _, st, err := searchViolation(node, verifyDepth, cfg, false, stableFrom(node, opts))
	if err != nil {
		return false, st, err
	}
	return !found, st, nil
}

// stableFrom is the leaf predicate of bounded stability below node: the
// leaf's history is t-linearizable for t = node's history length.
func stableFrom(node *sim.System, opts check.Options) leafPredicate {
	t := node.History().Len()
	obj := node.Impl().Spec()
	return func(e *engine) (bool, error) {
		return check.TLinearizable(obj, e.sys.History(), t, opts)
	}
}

// errBudget aborts a budgeted stability pre-check whose subtree turned out
// to be expensive (see FindStable).
var errBudget = errors.New("explore: node budget exhausted")

// stableCheckAt verifies bounded stability of the engine's CURRENT
// configuration, sitting at the given absolute depth, entirely in place:
// every leaf within verifyDepth below it must be t-linearizable for t =
// the current history length. The walk aborts at the first violating leaf
// and rewinds to the configuration it started from. A positive budget
// additionally abandons the walk once that many nodes have been visited
// without a verdict; decided reports whether the verdict is final. The
// budget test is part of the predicate, so a search without a budget does
// not make it.
func stableCheckAt(e *engine, depth, verifyDepth int, opts check.Options, budget int) (stable bool, vst Stats, decided bool, err error) {
	pred := stableFrom(e.sys, opts)
	if budget > 0 {
		tLinearizable := pred
		pred = func(e *engine) (bool, error) {
			if vst.Nodes > budget {
				return false, errBudget
			}
			return tLinearizable(e)
		}
	}
	walk := newViolationHunt(false).walk(pred)
	err = e.sub(depth, depth+verifyDepth, &vst, func() error { return walk(e, depth) })
	switch err {
	case nil:
		return true, vst, true, nil
	case errViolation:
		return false, vst, true, nil
	case errBudget:
		return false, vst, false, nil
	default:
		return false, vst, false, err
	}
}

// appendChildren enumerates the children of the engine's current
// configuration through expand — the same code path every walk in this
// package branches with, so the (process, branch) order the queue records
// is the order replayPath will resolve — and appends their branch paths to
// queue.
func appendChildren(e *engine, depth int, path []pathStep, queue [][]pathStep) ([][]pathStep, error) {
	err := e.expand(depth, func(int) error {
		// path has depth steps; clipping its capacity makes append copy.
		queue = append(queue, append(path[:depth:depth], e.steps[depth]))
		return nil
	})
	return queue, err
}

// fsSeqBudget is the node budget of the in-place sequential pre-check the
// parallel search gives each candidate before fanning its verification out
// to the pool: most unstable candidates hit a violating leaf well inside
// it, sparing the per-candidate pool setup (worker clones, frontier
// probe), while an expensive subtree — in practice the stable winner's —
// abandons the pre-check early and gets the full parallel treatment.
const fsSeqBudget = 512

// FindStable searches the execution tree of root for a stable configuration
// (Claim 1 in the proof of Proposition 18 guarantees one exists for any
// eventually linearizable implementation). The search walks configurations
// in breadth-first order up to searchDepth and verifies stability of each
// candidate (the dominant cost) at verifyDepth. It returns the shallowest
// stable configuration found — among equal depths, the first in
// breadth-first order, for every worker count.
//
// The implementation under test must use only linearizable base objects
// (Proposition 18's hypothesis); eventually linearizable bases make the
// tree branch on responses, which is supported but usually unintended here.
//
// The queue holds branch paths, not configurations: one working system
// replays a candidate's path, verifies it in place, enumerates its children
// and rewinds — no clone per edge, no clone per queued node, one clone for
// the result.
//
// With more than one worker each candidate's stability verification — the
// search's dominant cost, an exhaustive walk of the candidate's bounded
// subtree — fans its leaf checks out across the worker pool, while
// candidates are still consumed strictly in breadth-first order, so the
// result (configuration, depth, T, NodesSearched and the winner's
// VerifyStats) is identical to the sequential search. Parallelism goes
// inside the verification rather than across candidates because the stable
// winner's full-subtree verification dwarfs the early-aborting unstable
// checks before it: speeding up that single walk is what moves wall-clock.
// Config.Dedup is ignored (stability of a node depends on its recorded
// history, not just the configuration).
func FindStable(root *sim.System, searchDepth, verifyDepth int, cfg Config, opts check.Options) (*StableResult, error) {
	cfg.Dedup = false
	var scratch Stats
	e := newEngine(root, searchDepth+verifyDepth, cfg, &scratch)
	budget := 0 // sequential search: run every pre-check to its verdict
	if cfg.workerCount() > 1 {
		budget = fsSeqBudget
	}
	queue := [][]pathStep{nil}
	for i := 0; i < len(queue); i++ {
		path := queue[i]
		if err := replayPath(e.sys, path); err != nil {
			return nil, err
		}
		depth := len(path)
		stable, vst, decided, err := stableCheckAt(e, depth, verifyDepth, opts, budget)
		if err == nil && !decided {
			// The budgeted walk found no violation but ran out: verify the
			// candidate exhaustively on the worker pool. A winner decided
			// here enumerates its whole subtree, so its VerifyStats match
			// the sequential search's exactly.
			stable, vst, err = NodeStable(e.sys, verifyDepth, cfg, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("explore: stability check at depth %d: %w", depth, err)
		}
		if stable {
			return &StableResult{
				System:        e.sys.Clone(),
				Depth:         depth,
				T:             e.sys.History().Len(),
				VerifyStats:   vst,
				NodesSearched: i + 1,
			}, nil
		}
		if depth < searchDepth {
			if queue, err = appendChildren(e, depth, path, queue); err != nil {
				return nil, err
			}
		}
		if err := e.undoTo(0); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("explore: no stable configuration within depth %d (verify depth %d)",
		searchDepth, verifyDepth)
}
