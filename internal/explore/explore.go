// Package explore performs bounded exhaustive exploration of the execution
// trees of Section 4 and 5: every interleaving of process steps and, for
// eventually linearizable base objects, every weakly consistent response.
//
// Nodes of the paper's execution trees are configurations. The engine walks
// them with a single mutable sim.System: each edge is one Advance, each
// backtrack one Undo, so the cost of visiting a node is the cost of one
// atomic step instead of a deep copy of the whole configuration (the
// clone-per-edge reference engine is retained in reference_test.go for
// equivalence testing and benchmarking). The package provides the two
// searches the paper's proofs are built on:
//
//   - valency analysis (Proposition 15): classify configurations by the set
//     of reachable consensus decisions and locate critical configurations;
//   - stable-node search (Proposition 18, Claim 1): find a configuration C
//     such that every bounded extension's history is |αC|-linearizable.
//
// Exploration is bounded by depth; results are exhaustive up to the bound
// and reports state whether the horizon truncated anything.
//
// For symmetric workloads many interleavings reach literally the same
// configuration. Config.Dedup merges such nodes using the configuration
// fingerprint of sim.System.Fingerprint, turning the tree into a DAG; see
// Config for the soundness conditions.
//
// There is one per-node protocol per walk kind — engine.leaves (leaf
// enumeration) and valAnalyzer.analyze (postorder valence classification) —
// and every entry point, at every worker count, runs on one of the two.
//
// Exploration cost is intrinsically exponential, so the engine also scales
// across cores, and a parallel walk is the sequential walk cut at a frontier
// depth: the engine carries an optional cut that, at that depth, hands the
// node's branch path to a hook instead of visiting it. The walk from the
// root, with the cut installed, visits the prefix above the frontier; a
// worker pool runs the same walk below each recorded path (see parallel.go).
// Counters, valency reports, stable verdicts and violation witnesses are
// deterministic regardless of worker count; only callback invocation order
// is schedule-dependent.
package explore

import (
	"errors"
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Stats aggregates exploration counters.
type Stats struct {
	// Nodes is the number of configurations visited (including the root).
	Nodes int
	// Leaves is the number of terminal or horizon configurations.
	Leaves int
	// Truncated reports whether any leaf was cut off by the depth bound
	// rather than workload completion.
	Truncated bool
	// Deduped counts configurations skipped because an equivalent
	// configuration had already been explored at the same depth
	// (Config.Dedup only).
	Deduped int
}

// add accumulates other into s.
func (s *Stats) add(other Stats) {
	s.Nodes += other.Nodes
	s.Leaves += other.Leaves
	s.Truncated = s.Truncated || other.Truncated
	s.Deduped += other.Deduped
}

// Config tunes an exploration.
type Config struct {
	// Dedup merges configurations with equal fingerprints at equal depth:
	// only the first is explored, later arrivals are pruned and counted in
	// Stats.Deduped. Merging is sound when the quantity being computed
	// depends only on the configuration's future behaviour (reachable
	// decisions, reachable configurations), NOT when it depends on the path
	// taken to the node (e.g. linearizability of the recorded history), so
	// Leaves and Analyze honour it and the leaf-verdict searches
	// (LinearizableEverywhere, WeaklyConsistentEverywhere, NodeStable,
	// FindStable) ignore it. Dedup silently disables itself when some
	// programme does not implement machine.Fingerprinter.
	Dedup bool

	// Workers is the number of exploration workers. 0 picks the engine
	// default: GOMAXPROCS for the verdict and analysis searches
	// (LinearizableEverywhere, WeaklyConsistentEverywhere, Analyze,
	// NodeStable, FindStable), whose results are deterministic for every
	// worker count, and sequential for the callback walk (Leaves), whose
	// leaf function is typically stateful. A negative value forces
	// GOMAXPROCS everywhere; 1 forces the sequential in-place engine (the
	// semantic reference). With more than one worker the execution tree is
	// split at a frontier depth and the root subtrees are handed to a
	// worker pool; counters and verdicts stay deterministic, but leaf
	// callbacks may be invoked concurrently and in schedule-dependent
	// order, so a stateful callback must either synchronize or keep the
	// walk sequential.
	Workers int

	// CheckDeterminism re-steps every probe on a second programme clone and
	// turns a probe-vs-probe divergence into a hard error. The in-place
	// engine installs the stepped probe without re-stepping the live
	// programme, so a nondeterministic implementation (Step depending on
	// state outside Clone) would otherwise yield one arbitrary behaviour
	// per node instead of failing loudly; enable this when validating a new
	// implementation. Costs roughly one extra Clone+Step per node.
	CheckDeterminism bool

	// frontierDepth pins the depth of the cut for tests; 0, the only value a
	// caller outside the package can have, probes for one (chooseFrontier).
	frontierDepth int
}

// errViolation aborts a leaf enumeration as soon as one violating leaf is
// found (the early-exit sentinel of LinearizableEverywhere, NodeStable and
// friends).
var errViolation = errors.New("explore: violating leaf")

// errCancelled aborts a walk whose answer is no longer wanted: a subtree
// ranked behind a violation already found, a frontier probe that has
// counted enough.
var errCancelled = errors.New("explore: cancelled")

// isSentinel reports the package's clean early exits, which end a walk
// without failing the exploration.
func isSentinel(err error) bool {
	return err == errViolation || err == errCancelled || err == errBudget
}

// engine is one in-place exploration: a mutable working system, per-depth
// candidate scratch (so a node's branch list survives the recursion into
// its subtrees without allocating), the branch path the walk is standing
// on, and the optional visited set.
type engine struct {
	sys      *sim.System
	maxDepth int
	st       *Stats
	cands    [][]int64 // per-depth candidate scratch
	// steps[d] is the edge the walk last took out of depth d, so steps[:d]
	// is the branch path of the node it stands on at depth d.
	steps []pathStep
	// visited keys merged configurations by their FULL byte encoding (plus
	// depth) — not a hash of it — so a collision can never silently prune
	// an unexplored distinct configuration. Keeping depth in the key makes
	// merging conservative: two arrivals at different depths have different
	// remaining horizons and are never merged. Nil when Dedup is off; a
	// localSet on a sequential engine, the pool's shardedSet on a worker.
	visited visitSet
	keyBuf  []byte             // scratch for building visit keys
	path    *check.PathChecker // see linearizable; nil on every other engine

	// The frontier cut. A walk that reaches cutDepth while cut is set hands
	// the node's branch path to cut instead of visiting it: the node is not
	// deduplicated, counted or shown to a callback here, because the worker
	// that walks the recorded path runs the whole per-node protocol on it,
	// and so every node is processed exactly once. All three walks test it
	// through atCut; the analysis's hook also leaves the node's valence in
	// the analyzer (see valAnalyzer.cutTruncated).
	cutDepth int
	cut      func(path []pathStep) error
	// rank is the depth-first position of the frontier subtree being
	// walked: on a worker the index of its task, on the engine walking the
	// prefix the number of cuts so far — the rank of every completed run
	// met above the frontier before the next cut.
	rank int
}

// newEngine is the one constructor: every entry point and every worker
// builds its engine here, so a Config field is honoured everywhere or
// nowhere.
func newEngine(root *sim.System, maxDepth int, cfg Config, st *Stats) *engine {
	work := root.Clone()
	work.EnableUndo()
	if cfg.CheckDeterminism {
		work.EnableDeterminismCheck()
	}
	e := &engine{
		sys:      work,
		maxDepth: maxDepth,
		st:       st,
		cands:    make([][]int64, maxDepth+1),
		steps:    make([]pathStep, maxDepth+1),
	}
	if cfg.Dedup && fingerprintable(work) {
		e.visited = localSet{}
	}
	return e
}

// fingerprintable reports whether every programme of s can encode its
// state, the condition Config.Dedup silently depends on.
func fingerprintable(s *sim.System) bool {
	_, ok := s.Fingerprint()
	return ok
}

// configKey encodes the current configuration and its depth into the
// engine's key scratch: the one place a merge key starts. The returned
// slice aliases that scratch.
func (e *engine) configKey(depth int) ([]byte, bool) {
	b, ok := e.sys.AppendConfigFingerprint(e.keyBuf[:0])
	if ok {
		b = spec.AppendFPInt(b, int64(depth))
	}
	e.keyBuf = b
	return b, ok
}

// pruneDup reports whether the current configuration was already explored
// at this depth (recording it if not).
func (e *engine) pruneDup(depth int) bool {
	if e.visited == nil {
		return false
	}
	key, ok := e.configKey(depth)
	if ok && e.visited.checkAndAdd(key) {
		e.st.Deduped++
		return true
	}
	return false
}

// atCut reports whether the node at depth belongs to the cut hook.
func (e *engine) atCut(depth int) bool { return e.cut != nil && depth == e.cutDepth }

// recordCut installs the cut that splits a walk at depth k: each frontier
// node's branch path is appended to *tasks, in depth-first order, and counted
// in e.rank.
func (e *engine) recordCut(k int, tasks *[][]pathStep) {
	e.cutDepth, e.cut = k, func(path []pathStep) error {
		*tasks = append(*tasks, clonePath(path))
		e.rank++
		return nil
	}
}

// expand advances into every child of the current configuration (every
// enabled process, every candidate response), invoking rec at depth+1 and
// undoing each step; rec finds the edge it arrived by in e.steps[depth].
// The candidate buffer lives in per-depth scratch: deeper recursion writes
// deeper rows, so the branch list stays intact across subtrees without
// copying.
func (e *engine) expand(depth int, rec func(depth int) error) error {
	buf := e.cands[depth][:0]
	for p := 0; p < e.sys.NumProcs(); p++ {
		if !e.sys.CanStep(p) {
			continue
		}
		var err error
		buf, err = e.sys.CandidatesAppend(p, buf[:0])
		if err != nil {
			return fmt.Errorf("explore: candidates for p%d at depth %d: %w", p, depth, err)
		}
		e.cands[depth] = buf
		for i := 0; i < len(buf); i++ {
			if err := e.sys.AdvanceResp(p, buf[i]); err != nil {
				return fmt.Errorf("explore: advance p%d branch %d at depth %d: %w", p, i, depth, err)
			}
			e.steps[depth] = pathStep{proc: int32(p), branch: int32(i)}
			if err := rec(depth + 1); err != nil {
				return err
			}
			if err := e.undoTo(depth); err != nil {
				return err
			}
		}
	}
	return nil
}

// undoTo rewinds the working system to undo depth n — which, one Advance
// per edge from a root clone, is the tree depth. Every undo of an engine's
// system goes through it, so the path checker, where there is one, always
// holds a prefix of the history.
func (e *engine) undoTo(n int) error {
	err := e.sys.UndoTo(n)
	if e.path != nil {
		e.path.Truncate(e.sys.History().Len())
	}
	return err
}

// sub runs walk below the current configuration, which sits at depth, with
// its own horizon and counters, then restores the engine's and rewinds to
// that configuration — also when walk exits early and leaves the system
// wherever it stopped.
func (e *engine) sub(depth, horizon int, st *Stats, walk func() error) error {
	prevSt, prevMax := e.st, e.maxDepth
	e.st, e.maxDepth = st, horizon
	err := walk()
	e.st, e.maxDepth = prevSt, prevMax
	if uerr := e.undoTo(depth); uerr != nil && (err == nil || isSentinel(err)) {
		err = uerr
	}
	return err
}

// linearizable is LinearizableEverywhere's leaf predicate, read off the
// engine's path checker (built at the first leaf that asks). The checker
// holds the history up to the deepest ancestor this leaf shares with the
// one before it and the leaf pushes the events since, so each event of the
// tree is pushed once.
func (e *engine) linearizable(opts check.Options) (bool, error) {
	if e.path == nil {
		e.path = check.NewPathChecker(e.sys.Impl().Spec(), opts)
	}
	h := e.sys.History()
	for i := e.path.Len(); i < h.Len(); i++ {
		if err := e.path.Push(h.Event(i)); err != nil {
			return false, fmt.Errorf("explore: path check at event %d: %w", i, err)
		}
	}
	return e.path.Linearizable(), nil
}

func (e *engine) leaves(depth int, fn func(*sim.System) error) error {
	if e.atCut(depth) {
		return e.cut(e.steps[:depth])
	}
	if e.pruneDup(depth) {
		return nil
	}
	e.st.Nodes++
	done := e.sys.Done()
	if done || depth >= e.maxDepth {
		e.st.Leaves++
		if !done {
			e.st.Truncated = true
		}
		return fn(e.sys)
	}
	return e.expand(depth, func(d int) error { return e.leaves(d, fn) })
}

// Leaves explores to maxDepth and invokes fn on every leaf (terminal or
// horizon configuration). The leaf system passed to fn is the engine's
// working copy: valid only during the call, Clone it to keep it. With the
// zero Config the walk is sequential (fn is typically stateful); with more
// than one worker fn may be invoked concurrently and the leaf order across
// subtrees is schedule-dependent, while Stats and the set of leaves stay
// deterministic.
func Leaves(root *sim.System, maxDepth int, cfg Config, fn func(leaf *sim.System) error) (Stats, error) {
	workers := 1
	if cfg.Workers != 0 {
		workers = cfg.workerCount()
	}
	return walkTree(root, maxDepth, cfg, workers,
		func(e *engine, depth int) error { return e.leaves(depth, fn) }, nil)
}

// LinearizableEverywhere checks that every leaf history of the bounded
// execution tree is linearizable against the implemented object's spec.
// It returns the first violating configuration (a clone, safe to keep), if
// any. The walk aborts as soon as a violation is found, so the returned
// Stats cover the full tree only when the check passes.
//
// Regardless of worker count the witness is the violating leaf with the
// lexicographically smallest branch path — the one the sequential walk
// finds first — not whichever worker loses the race. Config.Dedup is
// ignored: linearizability of the recorded history is path-dependent, so
// configuration merging would be unsound here.
func LinearizableEverywhere(root *sim.System, maxDepth int, cfg Config, opts check.Options) (bool, *sim.System, Stats, error) {
	found, bad, st, err := searchViolation(root, maxDepth, cfg, true, func(e *engine) (bool, error) {
		return e.linearizable(opts)
	})
	if err != nil {
		return false, nil, st, err
	}
	return !found, bad, st, nil
}

// WeaklyConsistentEverywhere checks weak consistency of every leaf history.
// Like LinearizableEverywhere it aborts on the first violation and returns
// the lexicographically first witness; see there for the witness and Dedup
// semantics.
func WeaklyConsistentEverywhere(root *sim.System, maxDepth int, cfg Config, opts check.Options) (bool, *sim.System, Stats, error) {
	specs := implSpecs(root)
	found, bad, st, err := searchViolation(root, maxDepth, cfg, true, func(e *engine) (bool, error) {
		return check.WeaklyConsistent(specs, e.sys.History(), opts)
	})
	if err != nil {
		return false, nil, st, err
	}
	return !found, bad, st, nil
}

func implSpecs(s *sim.System) map[string]spec.Object {
	return map[string]spec.Object{s.Impl().Name(): s.Impl().Spec()}
}
