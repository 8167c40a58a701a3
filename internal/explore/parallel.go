// Parallel frontier-split exploration.
//
// Exhaustive exploration is exponential in depth, so after the in-place
// advance/undo engine made one core fast, the only remaining
// order-of-magnitude lever is using all of them. The scheme:
//
//  1. Split: walk the tree from the root down to a frontier depth k
//     (chosen so the frontier is several times wider than the worker
//     count). Nodes above the frontier — a vanishingly small prefix of the
//     exponential tree — are handled inline during the split; nodes at the
//     frontier become subtree tasks identified by their branch path.
//  2. Fan out: a pool of workers pulls tasks from a shared queue (an
//     atomic cursor over the task list), so skewed subtrees cannot make
//     stragglers. Each worker owns ONE clone of the root system for its
//     whole lifetime: it seeds a subtree by replaying the task's branch
//     path, explores it with the ordinary advance/undo engine, and rewinds
//     with sim.System.UndoTo — one clone per worker, not per subtree, and
//     certainly not per edge.
//  3. Merge: Stats are accumulated per worker and summed. Deduplication
//     uses a sharded concurrent visited set keyed by the full configuration
//     encoding (never a hash), shared across workers.
//
// Determinism. Counters are additive and every tree node is visited by
// exactly one party (the splitter for depths < k, a worker for depths
// ≥ k), so Nodes/Leaves/Truncated match the sequential engine exactly.
// With Dedup the explored configurations form a DAG whose reachable set is
// schedule-independent (a key is explored iff some explored parent reaches
// it, by induction over depth), so the counters — including Deduped — are
// also deterministic even though *which arrival path* wins a race is not.
// Searches that return a witness (LinearizableEverywhere and friends) keep
// their answers deterministic by ranking violations by the subtree's
// position in depth-first order: the winning witness is the one with the
// lexicographically smallest branch path, exactly the leaf the sequential
// early-exit walk would return.
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

// clonePath copies a branch path (the splitter reuses its scratch path).
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
// Sharded concurrent visited set.

// visitShardCount is the number of independently locked shards (a power of
// two; the shard index is the low bits of an FNV hash of the key).
const visitShardCount = 64

type visitShard struct {
	mu sync.Mutex
	m  map[string]struct{}
	_  [40]byte // pad to a cache line to avoid false sharing between shards
}

// shardedSet is the concurrent visited set behind Config.Dedup in parallel
// explorations. Keys are full configuration encodings; the hash picks the
// shard only, membership is decided by exact byte comparison, so a
// collision can never silently prune an unexplored distinct configuration.
type shardedSet struct {
	shards [visitShardCount]visitShard
}

func newShardedSet() *shardedSet {
	s := &shardedSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]struct{})
	}
	return s
}

// checkAndAdd atomically records key and reports whether it was already
// present.
func (s *shardedSet) checkAndAdd(key []byte) bool {
	sh := &s.shards[spec.FNV64(key)&(visitShardCount-1)]
	sh.mu.Lock()
	_, dup := sh.m[string(key)]
	if !dup {
		sh.m[string(key)] = struct{}{}
	}
	sh.mu.Unlock()
	return dup
}

// ---------------------------------------------------------------------------
// Sharded valence memo (Analyze with Dedup under parallel workers).

// memoEntry is one memoized subtree valence. The claimant publishes
// decisions/truncated and closes ready; later arrivals wait on ready.
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
	close(e.ready)
}

type memoShard struct {
	mu sync.Mutex
	m  map[string]*memoEntry
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
		s.shards[i].m = make(map[string]*memoEntry)
	}
	return s
}

// claim returns the entry for key and whether the caller claimed it (and
// must therefore resolve it).
func (s *shardedMemo) claim(key []byte) (*memoEntry, bool) {
	sh := &s.shards[spec.FNV64(key)&(visitShardCount-1)]
	sh.mu.Lock()
	if e, ok := sh.m[string(key)]; ok {
		sh.mu.Unlock()
		return e, false
	}
	e := &memoEntry{ready: make(chan struct{})}
	sh.m[string(key)] = e
	sh.mu.Unlock()
	return e, true
}

// ---------------------------------------------------------------------------
// Frontier split.

// maxFrontierDepth bounds the automatic frontier depth; maxFrontierTasks
// bounds the number of subtree tasks (deeper/wider frontiers buy no
// additional balance, they only add replay overhead).
const (
	maxFrontierDepth = 8
	maxFrontierTasks = 4096
)

// subtreeTask is one unit of worker work: the subtree rooted at the
// configuration reached by path. seq is the task's position in depth-first
// order among all frontier nodes and prefix leaves — the rank used to pick
// deterministic witnesses.
type subtreeTask struct {
	path []pathStep
	seq  int
	node *prefixNode // analyze mode only
}

// chooseFrontier picks the split depth: the explicit Config.FrontierDepth
// if set, else the shallowest depth whose width is comfortably larger than
// the worker count (probed with cheap counting walks; the probe is a
// heuristic, so it ignores dedup and visitor pruning).
func chooseFrontier(e *engine, maxDepth, workers, explicit int) (int, error) {
	if explicit > 0 {
		if explicit >= maxDepth {
			explicit = maxDepth - 1
		}
		if explicit < 1 {
			explicit = 1
		}
		return explicit, nil
	}
	target := 8 * workers
	if target > maxFrontierTasks {
		target = maxFrontierTasks
	}
	k := 1
	for ; k < maxDepth-1 && k < maxFrontierDepth; k++ {
		n, err := e.countAtDepth(k, target)
		if err != nil {
			return 0, err
		}
		if n == 0 || n >= target {
			break
		}
	}
	return k, nil
}

// countAtDepth counts the configurations at exactly the given depth that
// still have work to do, short-circuiting once limit is reached.
func (e *engine) countAtDepth(depth, limit int) (int, error) {
	n := 0
	var walk func(d int) error
	walk = func(d int) error {
		if e.sys.Done() {
			return nil
		}
		if d == depth {
			n++
			if n >= limit {
				return errCancelled
			}
			return nil
		}
		return e.expand(d, walk)
	}
	err := walk(0)
	if err == errCancelled {
		err = nil
	}
	// An aborted walk (the short-circuit above, or an advance error) exits
	// through expand without unwinding; rewind so the engine is back at the
	// root for the real split.
	if uerr := e.undoTo(0); uerr != nil && err == nil {
		err = uerr
	}
	return n, err
}

// splitter enumerates the prefix of the execution tree above the frontier
// depth. Prefix nodes are visited inline (counted, deduplicated, shown to
// the visitor / leaf callback); frontier nodes become subtree tasks.
type splitter struct {
	e      *engine
	k      int
	dfs    bool    // DFS mode: run the visitor, honour pruning
	visit  Visitor // DFS mode
	leafFn func(s *sim.System, seq int) error
	path   []pathStep
	tasks  []subtreeTask
	seq    int
}

// walk enumerates the prefix below the current configuration at depth.
// Frontier nodes (depth == k) are emitted as tasks and NOT visited — the
// worker that picks the task up runs the full per-node protocol (dedup
// check, counting, callbacks) so every node is processed exactly once.
func (sp *splitter) walk(depth int) error {
	if depth == sp.k {
		sp.tasks = append(sp.tasks, subtreeTask{path: clonePath(sp.path), seq: sp.seq})
		sp.seq++
		return nil
	}
	if sp.e.pruneDup(depth) {
		return nil
	}
	sp.e.st.Nodes++
	descend := true
	if sp.dfs && sp.visit != nil {
		var err error
		descend, err = sp.visit(sp.e.sys, depth)
		if err != nil {
			return err
		}
	}
	if sp.e.sys.Done() {
		sp.e.st.Leaves++
		seq := sp.seq
		sp.seq++
		if !sp.dfs && sp.leafFn != nil {
			return sp.leafFn(sp.e.sys, seq)
		}
		return nil
	}
	if !descend {
		return nil
	}
	return sp.e.expandSteps(depth, func(d int, step pathStep) error {
		sp.path = append(sp.path, step)
		err := sp.walk(d)
		sp.path = sp.path[:len(sp.path)-1]
		return err
	})
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

// runTasks fans tasks out to workers pulling from a shared atomic cursor.
// body explores one subtree on the worker's engine; abort errors (sentinel
// early exits) end the subtree without failing the run. Worker Stats are
// summed into total.
func runTasks(root *sim.System, maxDepth, workers int, cfg Config, tasks []subtreeTask,
	shared *shardedSet, total *Stats,
	body func(e *engine, t subtreeTask) error,
	isAbort func(error) bool, skip func(t subtreeTask) bool) error {

	if len(tasks) == 0 {
		return nil
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var cursor atomic.Int64
	var fatal fatalErr
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The engine (a deep clone of root) is created lazily on the
			// first task this worker actually explores: a hunt whose winner
			// was already found during the prefix split skips everything and
			// should not pay a clone per worker.
			var e *engine
			for !fatal.set.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				if skip != nil && skip(t) {
					continue
				}
				if e == nil {
					e = newWorkerEngine(root, maxDepth, cfg, shared, &stats[w])
				}
				if err := replayPath(e.sys, t.path); err != nil {
					fatal.fail(err)
					return
				}
				err := body(e, t)
				if uerr := e.undoTo(0); uerr != nil && err == nil {
					err = uerr
				}
				if err != nil && (isAbort == nil || !isAbort(err)) {
					fatal.fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range stats {
		total.add(stats[w])
	}
	return fatal.get()
}

// isSentinel reports the package's clean-early-exit sentinels.
func isSentinel(err error) bool {
	return err == errViolation || err == errCancelled
}

// ---------------------------------------------------------------------------
// Parallel Leaves / DFS.

// leavesPar is the parallel leaf enumeration: split, fan out, merge. fn
// receives the depth-first rank of the enclosing subtree (or prefix leaf)
// so witness searches can order violations; isAbort marks sentinel errors
// that end a subtree without failing the exploration.
func leavesPar(root *sim.System, maxDepth int, cfg Config, workers int,
	fn func(leaf *sim.System, seq int) error, isAbort func(error) bool) (Stats, error) {

	var st Stats
	e := newEngine(root, maxDepth, cfg, &st)
	k, err := chooseFrontier(e, maxDepth, workers, cfg.FrontierDepth)
	if err != nil {
		return st, err
	}
	sp := &splitter{e: e, k: k, leafFn: fn}
	splitErr := sp.walk(0)
	if splitErr != nil && (isAbort == nil || !isAbort(splitErr)) {
		return st, splitErr
	}
	var shared *shardedSet
	if e.dedup {
		shared = newShardedSet()
	}
	err = runTasks(root, maxDepth, workers, cfg, sp.tasks, shared, &st,
		func(we *engine, t subtreeTask) error {
			return we.leaves(len(t.path), func(leaf *sim.System) error {
				return fn(leaf, t.seq)
			})
		}, isAbort, nil)
	return st, err
}

// dfsPar is the parallel preorder walk. The visitor runs on the splitting
// goroutine for prefix nodes and on workers below the frontier.
func dfsPar(root *sim.System, maxDepth int, cfg Config, workers int, visit Visitor) (Stats, error) {
	var st Stats
	e := newEngine(root, maxDepth, cfg, &st)
	k, err := chooseFrontier(e, maxDepth, workers, cfg.FrontierDepth)
	if err != nil {
		return st, err
	}
	sp := &splitter{e: e, k: k, dfs: true, visit: visit}
	if err := sp.walk(0); err != nil {
		return st, err
	}
	var shared *shardedSet
	if e.dedup {
		shared = newShardedSet()
	}
	err = runTasks(root, maxDepth, workers, cfg, sp.tasks, shared, &st,
		func(we *engine, t subtreeTask) error {
			return we.dfs(len(t.path), visit)
		}, nil, nil)
	return st, err
}

// ---------------------------------------------------------------------------
// Violation search (LinearizableEverywhere, WeaklyConsistentEverywhere,
// NodeStable).

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

// record notes a violation found at rank seq in leaf (the engine's working
// system — cloned here if a witness is kept).
func (h *violationHunt) record(seq int, leaf *sim.System) {
	if !h.keepWitness {
		// Verdict-only searches (NodeStable) cancel everything outstanding.
		h.bestSeq.Store(-1)
		return
	}
	h.mu.Lock()
	if int64(seq) < h.bestSeq.Load() {
		h.bestSeq.Store(int64(seq))
		h.witness = leaf.Clone()
	}
	h.mu.Unlock()
}

func (h *violationHunt) found() bool { return h.bestSeq.Load() != noViolation }

// searchViolation checks pred on every leaf below root, aborting as early
// as possible once a violation is found. With keepWitness the returned
// system is the violating leaf with the lexicographically smallest branch
// path, identical for every worker count. Stats cover the full tree only
// when no violation exists (early exit truncates them, exactly like the
// sequential sentinel walk). Dedup is forced off: leaf checks read the
// recorded history, which depends on the path taken to a configuration.
func searchViolation(root *sim.System, maxDepth int, cfg Config, keepWitness bool,
	pred leafPredicate) (bool, *sim.System, Stats, error) {

	cfg.Dedup = false
	w := cfg.workerCount()
	if w <= 1 || maxDepth < 2 {
		var bad *sim.System
		var st Stats
		e := newEngine(root, maxDepth, cfg, &st)
		err := e.leaves(0, func(leaf *sim.System) error {
			ok, err := pred(e)
			if err != nil {
				return err
			}
			if !ok {
				if keepWitness {
					bad = leaf.Clone()
				}
				return errViolation
			}
			return nil
		})
		found := err == errViolation
		if found {
			err = nil
		}
		return found, bad, st, err
	}

	hunt := newViolationHunt(keepWitness)
	fn := func(e *engine, seq int) error {
		if int64(seq) > hunt.bestSeq.Load() {
			return errCancelled
		}
		ok, err := pred(e)
		if err != nil {
			return err
		}
		if !ok {
			hunt.record(seq, e.sys)
			return errViolation
		}
		return nil
	}
	st, err := leavesParHunt(root, maxDepth, cfg, w, fn, hunt)
	if err != nil {
		return false, nil, st, err
	}
	return hunt.found(), hunt.witness, st, nil
}

// leavesParHunt is leavesPar specialised to a violation hunt: subtrees
// ranked above the best violation are skipped before they are even seeded.
func leavesParHunt(root *sim.System, maxDepth int, cfg Config, workers int,
	fn func(e *engine, seq int) error, hunt *violationHunt) (Stats, error) {

	var st Stats
	e := newEngine(root, maxDepth, cfg, &st)
	k, err := chooseFrontier(e, maxDepth, workers, cfg.FrontierDepth)
	if err != nil {
		return st, err
	}
	sp := &splitter{e: e, k: k, leafFn: func(_ *sim.System, seq int) error { return fn(e, seq) }}
	if splitErr := sp.walk(0); splitErr != nil && !isSentinel(splitErr) {
		return st, splitErr
	}
	err = runTasks(root, maxDepth, workers, cfg, sp.tasks, nil, &st,
		func(we *engine, t subtreeTask) error {
			return we.leaves(len(t.path), func(*sim.System) error {
				return fn(we, t.seq)
			})
		}, isSentinel,
		func(t subtreeTask) bool { return int64(t.seq) > hunt.bestSeq.Load() })
	return st, err
}
