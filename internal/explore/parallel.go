// Parallel frontier-split exploration.
//
// Exhaustive exploration is exponential in depth, so after the in-place
// advance/undo engine made one core fast, the only remaining
// order-of-magnitude lever is using all of them. The scheme:
//
//  1. Cut: run the walk from the root with the engine's cut installed at a
//     frontier depth k (chosen so the frontier is several times wider than
//     the worker count). Nodes above the frontier — a vanishingly small
//     prefix of the exponential tree — are visited by that walk, by the
//     code that visits every other node; a node at the frontier is not
//     visited, its branch path becomes a subtree task.
//  2. Fan out: a pool of workers pulls tasks from a shared queue (an
//     atomic cursor over the task list), so skewed subtrees cannot make
//     stragglers. Each worker owns ONE clone of the root system for its
//     whole lifetime: it seeds a subtree by replaying the task's branch
//     path, runs the same walk below it, and rewinds with
//     sim.System.UndoTo — one clone per worker, not per subtree, and
//     certainly not per edge.
//  3. Sum: Stats are accumulated per worker and summed. Deduplication
//     uses a sharded concurrent visited set keyed by the full configuration
//     encoding (never a hash), shared across workers.
//
// Determinism. Counters are additive and every tree node is visited by
// exactly one party (the walk from the root for depths < k, a worker for
// depths ≥ k), so Nodes/Leaves/Truncated match the sequential engine
// exactly. With Dedup the explored configurations form a DAG whose
// reachable set is schedule-independent (a key is explored iff some
// explored parent reaches it, by induction over depth), so the counters —
// including Deduped — are also deterministic even though *which arrival
// path* wins a race is not. Searches that return a witness
// (LinearizableEverywhere and friends) keep their answers deterministic by
// ranking violations by the subtree's position in depth-first order: the
// winning witness is the one with the lexicographically smallest branch
// path, exactly the leaf the sequential early-exit walk would return.
package explore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// workerCount resolves Config.Workers for the verdict and analysis
// searches: 0 (and any negative value) means GOMAXPROCS.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// callbackWorkerCount resolves Config.Workers for the callback walks (DFS,
// Leaves): 0 means sequential — the safe default for stateful visitors —
// and a negative value opts in to GOMAXPROCS.
func (c Config) callbackWorkerCount() int {
	if c.Workers == 0 {
		return 1
	}
	return c.workerCount()
}

// pathStep is one edge of the execution tree: process proc advances by its
// branch-th candidate response. A []pathStep from the root identifies a
// configuration, and lexicographic order over paths is exactly the order
// in which the sequential depth-first engine reaches leaves.
type pathStep struct {
	proc, branch int32
}

// clonePath copies a branch path (the cut hook is handed the engine's own).
func clonePath(p []pathStep) []pathStep {
	return append([]pathStep(nil), p...)
}

// replayPath advances sys along path. With undo enabled the walk is
// reverted by sys.UndoTo.
func replayPath(sys *sim.System, path []pathStep) error {
	for _, s := range path {
		if err := sys.Advance(int(s.proc), int(s.branch)); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Visited sets.

// visitSet is the visited set behind Config.Dedup: checkAndAdd records key
// and reports whether it was already present. Which of the two an engine
// gets follows from who else can reach it, never from a setting.
type visitSet interface {
	checkAndAdd(key []byte) bool
}

// localSet is the visited set of an engine nobody shares: a sequential
// exploration, or the walk above the frontier (whose keys, carrying depths
// below the cut, can never meet a worker's).
type localSet map[string]struct{}

func (s localSet) checkAndAdd(key []byte) bool {
	if _, dup := s[string(key)]; dup {
		return true
	}
	s[string(key)] = struct{}{}
	return false
}

// visitShardCount is the number of independently locked shards (a power of
// two; the shard index is the low bits of an FNV hash of the key).
const visitShardCount = 64

type visitShard struct {
	mu sync.Mutex
	m  localSet
	_  [40]byte // pad to a cache line to avoid false sharing between shards
}

// shardedSet is the visited set the workers of one exploration share. Keys
// are full configuration encodings; the hash picks the shard only,
// membership is decided by exact byte comparison, so a collision can never
// silently prune an unexplored distinct configuration.
type shardedSet struct {
	shards [visitShardCount]visitShard
}

func newShardedSet() *shardedSet {
	s := &shardedSet{}
	for i := range s.shards {
		s.shards[i].m = localSet{}
	}
	return s
}

// checkAndAdd atomically records key and reports whether it was already
// present.
func (s *shardedSet) checkAndAdd(key []byte) bool {
	sh := &s.shards[spec.FNV64(key)&(visitShardCount-1)]
	sh.mu.Lock()
	dup := sh.m.checkAndAdd(key)
	sh.mu.Unlock()
	return dup
}

// ---------------------------------------------------------------------------
// Valence memos (Analyze with Dedup).

// memoTable memoizes subtree valences: claim returns the entry for key and
// whether the caller claimed it (and must therefore resolve it). Like the
// visited sets, which of the two an analyzer gets follows from who shares
// it.
type memoTable interface {
	claim(key []byte) (*memoEntry, bool)
}

// memoEntry is one memoized subtree valence. The claimant publishes
// decisions/truncated and, in a shared memo, closes ready; later arrivals
// wait on it. ready is nil in a localMemo, where the one goroutine there is
// has resolved every entry it can meet again (an unresolved claim is an
// ancestor, and keys carry their depth).
type memoEntry struct {
	ready     chan struct{}
	decisions []int64
	truncated bool
}

// resolve publishes the entry and releases every waiter. It must be called
// exactly once by the claimant, on every exit path (including errors, so
// that an aborted run cannot strand waiters).
func (e *memoEntry) resolve(decisions []int64, truncated bool) {
	e.decisions = append([]int64(nil), decisions...)
	e.truncated = truncated
	if e.ready != nil {
		close(e.ready)
	}
}

func (e *memoEntry) wait() {
	if e.ready != nil {
		<-e.ready
	}
}

// localMemo is the memo of an analyzer nobody shares: the sequential
// analysis, and the two passes above the frontier.
type localMemo map[string]*memoEntry

func (m localMemo) claim(key []byte) (*memoEntry, bool) {
	if e, ok := m[string(key)]; ok {
		return e, false
	}
	e := &memoEntry{}
	m[string(key)] = e
	return e, true
}

type memoShard struct {
	mu sync.Mutex
	m  localMemo
	_  [40]byte
}

// shardedMemo memoizes subtree valences across workers. Unlike the plain
// visited set an arrival needs the merged VALUE, not just a membership
// bit, so entries carry an in-flight latch: the first arrival claims the
// key and explores, later arrivals block until the claimant resolves.
//
// The latch cannot deadlock: a worker waiting at depth d holds claims only
// at depths < d (its DFS ancestors), and the claimant it waits on can
// itself only be waiting at some depth > d (inside the claimed subtree),
// so every wait-for edge strictly increases depth and no cycle exists.
type shardedMemo struct {
	shards [visitShardCount]memoShard
}

func newShardedMemo() *shardedMemo {
	s := &shardedMemo{}
	for i := range s.shards {
		s.shards[i].m = localMemo{}
	}
	return s
}

func (s *shardedMemo) claim(key []byte) (*memoEntry, bool) {
	sh := &s.shards[spec.FNV64(key)&(visitShardCount-1)]
	sh.mu.Lock()
	e, claimed := sh.m.claim(key)
	if claimed {
		e.ready = make(chan struct{})
	}
	sh.mu.Unlock()
	return e, claimed
}

// ---------------------------------------------------------------------------
// The frontier.

// maxFrontierDepth bounds the automatic frontier depth; maxFrontierTasks
// bounds the number of subtree tasks (deeper/wider frontiers buy no
// additional balance, they only add replay overhead).
const (
	maxFrontierDepth = 8
	maxFrontierTasks = 4096
)

// chooseFrontier picks the depth of the cut: explicit if a test pinned one
// (taken as given: it must lie in 1..maxDepth-1), else the shallowest depth
// whose width is comfortably larger than the worker count. The probe is the
// leaf walk itself with the horizon pulled up to the candidate depth,
// counting the leaves that still have work to do and stopping once there
// are enough; it is a heuristic, so it ignores dedup and visitor pruning,
// and it counts into nobody's Stats.
func chooseFrontier(e *engine, workers, explicit int) (int, error) {
	if explicit > 0 {
		return explicit, nil
	}
	visited := e.visited
	e.visited = nil
	defer func() { e.visited = visited }()
	target := min(8*workers, maxFrontierTasks)
	k := 1
	for ; k < e.maxDepth-1 && k < maxFrontierDepth; k++ {
		n := 0
		err := e.sub(0, k, new(Stats), func() error {
			return e.leaves(0, func(s *sim.System) error {
				if !s.Done() {
					if n++; n >= target {
						return errCancelled
					}
				}
				return nil
			})
		})
		if err != nil && err != errCancelled {
			return 0, err
		}
		if n == 0 || n >= target {
			break
		}
	}
	return k, nil
}

// ---------------------------------------------------------------------------
// Worker pool.

// fatalErr records the first unrecoverable error across workers and makes
// the others drain.
type fatalErr struct {
	set atomic.Bool
	mu  sync.Mutex
	err error
}

func (f *fatalErr) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		f.set.Store(true)
	}
	f.mu.Unlock()
}

func (f *fatalErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// walkFn is one walk kind bound to its callbacks (dfs with a visitor,
// leaves with a leaf function, analyze with a report to fill): it explores
// the subtree below the engine's current configuration, which sits at
// depth.
type walkFn func(e *engine, depth int) error

// runTasks fans the frontier subtrees out to workers pulling from a shared
// atomic cursor. Each task is the branch path of a frontier node and its
// index is its depth-first rank; body walks below it on the worker's
// engine, and a sentinel ends the subtree without failing the run. skip,
// if set, drops a task before it is seeded. Worker Stats are summed into
// total.
func runTasks(root *sim.System, maxDepth, workers int, cfg Config, tasks [][]pathStep,
	shared *shardedSet, total *Stats, body walkFn, skip func(rank int) bool) error {

	if len(tasks) == 0 {
		return nil
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var cursor atomic.Int64
	var fatal fatalErr
	// A worker bumps its counters at every node: each gets 128 bytes, so no
	// two workers' counters share a cache line.
	stats := make([]struct {
		Stats
		_ [96]byte
	}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The engine (a deep clone of root) is created lazily on the
			// first task this worker actually explores: a hunt whose winner
			// was already found above the frontier skips everything and
			// should not pay a clone per worker.
			var e *engine
			for !fatal.set.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if skip != nil && skip(i) {
					continue
				}
				if e == nil {
					e = newEngine(root, maxDepth, cfg, &stats[w].Stats)
					if shared != nil {
						e.visited = shared
					}
				}
				if err := replayPath(e.sys, tasks[i]); err != nil {
					fatal.fail(err)
					return
				}
				e.rank = i
				err := body(e, len(tasks[i]))
				if uerr := e.undoTo(0); uerr != nil && err == nil {
					err = uerr
				}
				if err != nil && !isSentinel(err) {
					fatal.fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range stats {
		total.add(stats[w].Stats)
	}
	return fatal.get()
}

// walkTree is the one driver behind DFS, Leaves and the violation
// searches. With one worker it is walk from the root. With more it is the
// same call with the cut installed at the frontier — which visits the
// prefix and records a task per frontier node — followed by walk below
// every task on the pool: the cut is the only difference between the
// sequential and the parallel exploration. A sentinel ends a walk cleanly
// (the tasks recorded before it still run: they precede it in depth-first
// order); any other error fails the exploration.
func walkTree(root *sim.System, maxDepth int, cfg Config, workers int, walk walkFn,
	skip func(rank int) bool) (Stats, error) {

	var st Stats
	e := newEngine(root, maxDepth, cfg, &st)
	if workers <= 1 || maxDepth < 2 {
		err := walk(e, 0)
		if isSentinel(err) {
			err = nil
		}
		return st, err
	}
	k, err := chooseFrontier(e, workers, cfg.frontierDepth)
	if err != nil {
		return st, err
	}
	var tasks [][]pathStep
	e.recordCut(k, &tasks)
	if err := walk(e, 0); err != nil && !isSentinel(err) {
		return st, err
	}
	var shared *shardedSet
	if e.visited != nil {
		shared = newShardedSet()
	}
	err = runTasks(root, maxDepth, workers, cfg, tasks, shared, &st, walk, skip)
	return st, err
}

// ---------------------------------------------------------------------------
// Violation search (LinearizableEverywhere, WeaklyConsistentEverywhere,
// NodeStable, FindStable's in-place pre-check).

// leafPredicate checks the leaf engine e sits on (e.sys is the leaf);
// ok=false flags a violation.
type leafPredicate func(e *engine) (ok bool, err error)

// violationHunt coordinates the deterministic-witness search: bestSeq is
// the depth-first rank of the best (smallest) violating subtree found so
// far, read with a bare atomic on the hot path. Workers exploring a
// subtree ranked above it abort; the subtree walk itself stops at its
// first violating leaf, which is the subtree's lexicographic minimum, so
// the surviving witness is the global lexicographic minimum — the leaf the
// sequential walk returns.
type violationHunt struct {
	bestSeq     atomic.Int64
	keepWitness bool
	mu          sync.Mutex
	witness     *sim.System
}

const noViolation = int64(1) << 62

func newViolationHunt(keepWitness bool) *violationHunt {
	h := &violationHunt{keepWitness: keepWitness}
	h.bestSeq.Store(noViolation)
	return h
}

// record notes a violation found at rank in leaf (the engine's working
// system — cloned here if a witness is kept).
func (h *violationHunt) record(rank int, leaf *sim.System) {
	if !h.keepWitness {
		// Verdict-only searches (NodeStable) cancel everything outstanding.
		h.bestSeq.Store(-1)
		return
	}
	h.mu.Lock()
	if int64(rank) < h.bestSeq.Load() {
		h.bestSeq.Store(int64(rank))
		h.witness = leaf.Clone()
	}
	h.mu.Unlock()
}

func (h *violationHunt) found() bool { return h.bestSeq.Load() != noViolation }

// beaten reports whether a subtree of this rank can no longer hold the
// answer.
func (h *violationHunt) beaten(rank int) bool { return int64(rank) > h.bestSeq.Load() }

// walk is the one "leaves with a predicate, stop at the first violation"
// loop, as a walkFn: the sequential search, the walk above the frontier
// (where a completed run ranks with the cuts made so far: it precedes the
// next frontier subtree, and being a violation ends that walk, so no task
// ever shares its rank), every worker, and the in-place pre-check of
// FindStable run it.
func (h *violationHunt) walk(pred leafPredicate) walkFn {
	return func(e *engine, depth int) error {
		return e.leaves(depth, func(*sim.System) error {
			if h.beaten(e.rank) {
				return errCancelled
			}
			ok, err := pred(e)
			if err != nil {
				return err
			}
			if !ok {
				h.record(e.rank, e.sys)
				return errViolation
			}
			return nil
		})
	}
}

// searchViolation checks pred on every leaf below root, aborting as early
// as possible once a violation is found. With keepWitness the returned
// system is the violating leaf with the lexicographically smallest branch
// path, identical for every worker count. Stats cover the full tree only
// when no violation exists (early exit truncates them). Dedup is forced
// off: leaf checks read the recorded history, which depends on the path
// taken to a configuration.
func searchViolation(root *sim.System, maxDepth int, cfg Config, keepWitness bool,
	pred leafPredicate) (bool, *sim.System, Stats, error) {

	cfg.Dedup = false
	hunt := newViolationHunt(keepWitness)
	st, err := walkTree(root, maxDepth, cfg, cfg.workerCount(), hunt.walk(pred), hunt.beaten)
	if err != nil {
		return false, nil, st, err
	}
	return hunt.found(), hunt.witness, st, nil
}
