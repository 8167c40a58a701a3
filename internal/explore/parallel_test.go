package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// The parallel frontier-split engine must be observationally equivalent to
// the sequential engine for every worker count and schedule: identical
// Stats, identical leaf multisets, identical valency reports, identical
// stable verdicts, and the same (lexicographically first) violation
// witness. These tests run the same workloads at several worker counts —
// including counts far above GOMAXPROCS, which forces heavy interleaving —
// and diff everything against workers=1.

var parWorkerCounts = []int{2, 3, 8}

func TestParallelLeavesMatchesSequential(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			var seqH []string
			seqStats, err := Leaves(root, sc.depth, Config{}, func(leaf *sim.System) error {
				seqH = append(seqH, leaf.History().String())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(seqH)
			for _, w := range parWorkerCounts {
				var mu sync.Mutex
				var parH []string
				parStats, err := Leaves(root, sc.depth, Config{Workers: w}, func(leaf *sim.System) error {
					h := leaf.History().String()
					mu.Lock()
					parH = append(parH, h)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if parStats != seqStats {
					t.Fatalf("workers=%d: stats diverge: par %+v, seq %+v", w, parStats, seqStats)
				}
				sort.Strings(parH)
				if !reflect.DeepEqual(parH, seqH) {
					t.Fatalf("workers=%d: leaf multiset diverges (%d vs %d leaves)", w, len(parH), len(seqH))
				}
			}
		})
	}
}

func TestParallelDFSMatchesSequential(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			seqStats, err := DFS(root, sc.depth, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				parStats, err := DFS(root, sc.depth, Config{Workers: w}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if parStats != seqStats {
					t.Fatalf("workers=%d: stats diverge: par %+v, seq %+v", w, parStats, seqStats)
				}
			}
		})
	}
}

// TestParallelDFSVisitorPrune checks that visitor pruning composes with the
// frontier split: pruning at a prefix depth and pruning below the frontier
// must both match the sequential walk.
func TestParallelDFSVisitorPrune(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	for _, cut := range []int{1, 3, 5} {
		visit := func(s *sim.System, depth int) (bool, error) { return depth < cut, nil }
		seqStats, err := DFS(root, 12, Config{}, visit)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range parWorkerCounts {
			parStats, err := DFS(root, 12, Config{Workers: w}, visit)
			if err != nil {
				t.Fatal(err)
			}
			if parStats != seqStats {
				t.Fatalf("cut=%d workers=%d: stats diverge: par %+v, seq %+v", cut, w, parStats, seqStats)
			}
		}
	}
}

// TestParallelDedupCounts checks the sharded concurrent visited set: the
// merged DAG has schedule-independent counters.
func TestParallelDedupCounts(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	seqStats, err := DFS(root, 12, Config{Dedup: true, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Deduped == 0 {
		t.Fatal("symmetric workload should merge configurations")
	}
	for _, w := range parWorkerCounts {
		parStats, err := DFS(root, 12, Config{Dedup: true, Workers: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if parStats != seqStats {
			t.Fatalf("workers=%d: dedup stats diverge: par %+v, seq %+v", w, parStats, seqStats)
		}
	}
}

func TestParallelAnalyzeMatchesSequential(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			seqRep, err := Analyze(root, sc.depth, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				parRep, err := Analyze(root, sc.depth, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(parRep, seqRep) {
					t.Fatalf("workers=%d: valency reports diverge:\npar: %+v\nseq: %+v", w, parRep, seqRep)
				}
			}
		})
	}
}

// TestParallelAnalyzeDedupDeterministic checks the latch-based shared memo:
// every counter of the deduplicating analysis is schedule-independent.
func TestParallelAnalyzeDedupDeterministic(t *testing.T) {
	cases := []scenario{
		{
			name: "reg-consensus",
			impl: elconsensus.Impl{AtomicBases: true},
			workload: [][]spec.Op{
				{spec.MakeOp1(spec.MethodPropose, 10)},
				{spec.MakeOp1(spec.MethodPropose, 20)},
			},
			depth: 14,
		},
		{
			name:     "cas-counter",
			impl:     counter.CAS{},
			workload: sim.UniformWorkload(2, 2, fetchinc),
			depth:    12,
		},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			seqRep, err := Analyze(root, sc.depth, Config{Dedup: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				for round := 0; round < 3; round++ {
					parRep, err := Analyze(root, sc.depth, Config{Dedup: true, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if parRep.Stats != seqRep.Stats {
						t.Fatalf("workers=%d: stats diverge: par %+v, seq %+v", w, parRep.Stats, seqRep.Stats)
					}
					if parRep.Univalent != seqRep.Univalent || parRep.Multivalent != seqRep.Multivalent {
						t.Fatalf("workers=%d: valence counts diverge: par %d/%d, seq %d/%d",
							w, parRep.Univalent, parRep.Multivalent, seqRep.Univalent, seqRep.Multivalent)
					}
					if parRep.AgreementViolations != seqRep.AgreementViolations {
						t.Fatalf("workers=%d: agreement violations diverge: par %d, seq %d",
							w, parRep.AgreementViolations, seqRep.AgreementViolations)
					}
					if len(parRep.Criticals) != len(seqRep.Criticals) {
						t.Fatalf("workers=%d: critical counts diverge: par %d, seq %d",
							w, len(parRep.Criticals), len(seqRep.Criticals))
					}
					if !reflect.DeepEqual(parRep.Root, seqRep.Root) {
						t.Fatalf("workers=%d: root valence diverges: par %+v, seq %+v", w, parRep.Root, seqRep.Root)
					}
				}
			}
		})
	}
}

// huntWorkerCounts are the worker counts the LinearizableEverywhere
// contract is pinned at (1 is the sequential in-place search).
var huntWorkerCounts = []int{1, 2, 4, 8}

// TestParallelViolationWitnessDeterministic pins the witness contract: the
// violating leaf returned by the search is the lexicographically first one
// — the exact leaf the sequential early-exit walk returns, and the one the
// per-leaf check.Linearizable search returned before the path checker —
// regardless of worker count and schedule.
func TestParallelViolationWitnessDeterministic(t *testing.T) {
	for _, impl := range []machine.Impl{counter.Sloppy{}, counter.Junk{}} {
		root := mustSystem(t, impl, sim.UniformWorkload(2, 1, fetchinc), nil)
		ok, perLeafBad, _, err := perLeafLinearizableEverywhere(root, 12, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok || perLeafBad == nil {
			t.Fatalf("%s must violate linearizability", impl.Name())
		}
		want := perLeafBad.History().String()
		for _, w := range huntWorkerCounts {
			for round := 0; round < 5; round++ {
				ok, bad, _, err := LinearizableEverywhere(root, 12, Config{Workers: w}, check.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ok || bad == nil {
					t.Fatalf("%s workers=%d: violation not found", impl.Name(), w)
				}
				if got := bad.History().String(); got != want {
					t.Fatalf("%s workers=%d round %d: witness diverges:\ngot:\n%s\nper-leaf search:\n%s", impl.Name(), w, round, got, want)
				}
			}
		}
	}
}

// TestParallelLinearizableEverywhereClean checks the passing direction:
// with no violation the walk is exhaustive and Stats are those of the
// per-leaf search for every worker count.
func TestParallelLinearizableEverywhereClean(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	okSeq, _, seqStats, err := perLeafLinearizableEverywhere(root, 22, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !okSeq {
		t.Fatal("CAS counter must be linearizable everywhere")
	}
	for _, w := range huntWorkerCounts {
		ok, bad, parStats, err := LinearizableEverywhere(root, 22, Config{Workers: w}, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok || bad != nil {
			t.Fatalf("workers=%d: spurious violation", w)
		}
		if parStats != seqStats {
			t.Fatalf("workers=%d: stats diverge: %+v, per-leaf search %+v", w, parStats, seqStats)
		}
	}
}

// TestEarlyExitOnViolation pins the satellite fix: the sequential walk must
// stop at the first violating leaf instead of enumerating the full tree.
func TestEarlyExitOnViolation(t *testing.T) {
	root := mustSystem(t, counter.Sloppy{}, sim.UniformWorkload(2, 1, fetchinc), nil)
	full, err := DFS(root, 10, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, st, err := LinearizableEverywhere(root, 10, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("sloppy counter must violate linearizability")
	}
	if st.Nodes >= full.Nodes {
		t.Fatalf("no early exit: checked %d nodes, tree has %d", st.Nodes, full.Nodes)
	}
}

func TestParallelNodeStableMatchesSequential(t *testing.T) {
	cases := []struct {
		name   string
		impl   machine.Impl
		verify int
	}{
		{"cas-counter", counter.CAS{}, 12},
		{"warmup-counter", counter.Warmup{Threshold: 2}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := mustSystem(t, tc.impl, sim.UniformWorkload(2, 2, fetchinc), nil)
			seqStable, seqStats, err := NodeStable(root, tc.verify, Config{Workers: 1}, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parWorkerCounts {
				stable, st, err := NodeStable(root, tc.verify, Config{Workers: w}, check.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if stable != seqStable {
					t.Fatalf("workers=%d: verdicts diverge: par %v, seq %v", w, stable, seqStable)
				}
				// Stats are exhaustive (hence deterministic) only when the
				// node is stable; a violation aborts at a schedule-dependent
				// point.
				if stable && st != seqStats {
					t.Fatalf("workers=%d: stats diverge: par %+v, seq %+v", w, st, seqStats)
				}
			}
		})
	}
}

func TestParallelFindStableMatchesSequential(t *testing.T) {
	impl := counter.Warmup{Threshold: 2}
	root := mustSystem(t, impl, sim.UniformWorkload(2, 2, fetchinc), nil)
	seq, err := FindStable(root, 8, 12, Config{Workers: 1}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWorkerCounts {
		par, err := FindStable(root, 8, 12, Config{Workers: w}, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if par.Depth != seq.Depth || par.T != seq.T || par.NodesSearched != seq.NodesSearched {
			t.Fatalf("workers=%d: result diverges: par depth=%d t=%d searched=%d, seq depth=%d t=%d searched=%d",
				w, par.Depth, par.T, par.NodesSearched, seq.Depth, seq.T, seq.NodesSearched)
		}
		if par.VerifyStats != seq.VerifyStats {
			t.Fatalf("workers=%d: verify stats diverge: par %+v, seq %+v", w, par.VerifyStats, seq.VerifyStats)
		}
		if par.System.History().String() != seq.System.History().String() {
			t.Fatalf("workers=%d: stable configurations diverge", w)
		}
	}
}

func TestParallelFindStableFailureMatchesSequential(t *testing.T) {
	impl := counter.Warmup{Threshold: 50}
	root := mustSystem(t, impl, sim.UniformWorkload(2, 3, fetchinc), nil)
	_, seqErr := FindStable(root, 2, 10, Config{Workers: 1}, check.Options{})
	if seqErr == nil {
		t.Fatal("expected failure for unreachable stabilization")
	}
	for _, w := range parWorkerCounts {
		_, err := FindStable(root, 2, 10, Config{Workers: w}, check.Options{})
		if err == nil {
			t.Fatalf("workers=%d: expected failure", w)
		}
		if err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: errors diverge: par %q, seq %q", w, err, seqErr)
		}
	}
}

// sortedCopy returns xs sorted, for multiset comparison.
func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestParallelExplicitFrontierDepths: the cut is the only difference
// between the sequential and the parallel exploration, so every walk kind
// is compared with its sequential self at EVERY cut depth — including the
// depths where a completed run sits above the frontier or exactly on it,
// where the frontier is empty because the tree ended above it, and (with
// Dedup) where two frontier nodes are the same configuration.
func TestParallelExplicitFrontierDepths(t *testing.T) {
	propose := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	trees := []scenario{
		{name: "cas-counter", impl: counter.CAS{}, workload: sim.UniformWorkload(2, 1, fetchinc), depth: 12},
		{name: "reg-consensus", impl: elconsensus.Impl{AtomicBases: true}, workload: propose, depth: 14},
		{name: "sloppy-counter", impl: counter.Sloppy{}, workload: sim.UniformWorkload(2, 1, fetchinc), depth: 12},
		// Its first violating leaf in depth-first order is at depth 14 and
		// later ones are completed runs at depth 12: at k=13 the witness is
		// in a subtree ranked before a violating run above the frontier.
		{name: "warmup-counter", impl: counter.Warmup{Threshold: 2}, workload: sim.UniformWorkload(2, 2, fetchinc), depth: 14},
	}
	for _, sc := range trees {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)

			// The sequential side of every comparison, and the shape of the
			// tree: where its runs complete, and which depths hold the same
			// configuration twice.
			var mu sync.Mutex
			var visits []string
			doneAt := map[int]bool{}
			prune := func(s *sim.System, depth int) (bool, error) {
				mu.Lock()
				visits = append(visits, fmt.Sprintf("%d|%s", depth, s.History()))
				mu.Unlock()
				return (s.History().Len()+depth)%4 != 3, nil
			}
			seqDFS, err := DFS(root, sc.depth, Config{Workers: 1}, prune)
			if err != nil {
				t.Fatal(err)
			}
			seqVisits := sortedCopy(visits)
			dupAt := map[int]bool{}
			configs := map[string]bool{}
			if _, err := DFS(root, sc.depth, Config{Workers: 1}, func(s *sim.System, depth int) (bool, error) {
				if s.Done() {
					doneAt[depth] = true
				}
				key, _ := s.AppendConfigFingerprint([]byte{byte(depth)})
				if configs[string(key)] {
					dupAt[depth] = true
				}
				configs[string(key)] = true
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			firstDone := sc.depth
			for d := range doneAt {
				firstDone = min(firstDone, d)
			}
			if firstDone+1 > sc.depth-1 {
				t.Fatalf("first completed run at depth %d: no cut depth has one above it", firstDone)
			}
			if !dupAt[2] {
				t.Fatal("no configuration occurs twice at depth 2: no cut depth has a duplicated frontier node")
			}
			seqDedupDFS, err := DFS(root, sc.depth, Config{Workers: 1, Dedup: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var leafHist []string
			seqLeaves, err := Leaves(root, sc.depth, Config{Workers: 1}, func(leaf *sim.System) error {
				leafHist = append(leafHist, leaf.History().String())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			seqLeafHist := sortedCopy(leafHist)
			seqRep, err := Analyze(root, sc.depth, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			seqDedupRep, err := Analyze(root, sc.depth, Config{Workers: 1, Dedup: true})
			if err != nil {
				t.Fatal(err)
			}
			if seqDedupRep.Stats.Deduped == 0 {
				t.Fatal("the deduplicating analysis merged nothing")
			}
			seqOK, seqBad, seqLinStats, err := LinearizableEverywhere(root, sc.depth, Config{Workers: 1}, check.Options{})
			if err != nil {
				t.Fatal(err)
			}

			for k := 1; k < sc.depth; k++ {
				cfg := Config{Workers: 4, frontierDepth: k}
				dedupCfg := Config{Workers: 4, frontierDepth: k, Dedup: true}

				visits = visits[:0]
				st, err := DFS(root, sc.depth, cfg, prune)
				if err != nil {
					t.Fatal(err)
				}
				if st != seqDFS || !reflect.DeepEqual(sortedCopy(visits), seqVisits) {
					t.Fatalf("k=%d: pruned DFS diverges: %+v with %d visits, sequential %+v with %d",
						k, st, len(visits), seqDFS, len(seqVisits))
				}
				if st, err = DFS(root, sc.depth, dedupCfg, nil); err != nil {
					t.Fatal(err)
				} else if st != seqDedupDFS {
					t.Fatalf("k=%d: dedup DFS stats diverge: %+v, sequential %+v", k, st, seqDedupDFS)
				}

				leafHist = leafHist[:0]
				st, err = Leaves(root, sc.depth, cfg, func(leaf *sim.System) error {
					h := leaf.History().String()
					mu.Lock()
					leafHist = append(leafHist, h)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if st != seqLeaves || !reflect.DeepEqual(sortedCopy(leafHist), seqLeafHist) {
					t.Fatalf("k=%d: Leaves diverges: %+v with %d leaves, sequential %+v with %d",
						k, st, len(leafHist), seqLeaves, len(seqLeafHist))
				}

				rep, err := Analyze(root, sc.depth, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep, seqRep) {
					t.Fatalf("k=%d: valency reports diverge:\npar: %+v\nseq: %+v", k, rep, seqRep)
				}
				rep, err = Analyze(root, sc.depth, dedupCfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stats != seqDedupRep.Stats || rep.Univalent != seqDedupRep.Univalent ||
					rep.Multivalent != seqDedupRep.Multivalent ||
					rep.AgreementViolations != seqDedupRep.AgreementViolations ||
					len(rep.Criticals) != len(seqDedupRep.Criticals) || !reflect.DeepEqual(rep.Root, seqDedupRep.Root) {
					t.Fatalf("k=%d: dedup valency reports diverge:\npar: %+v\nseq: %+v", k, rep, seqDedupRep)
				}

				ok, bad, st, err := LinearizableEverywhere(root, sc.depth, cfg, check.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ok != seqOK || (bad == nil) != (seqBad == nil) || (ok && st != seqLinStats) {
					t.Fatalf("k=%d: LinearizableEverywhere: ok=%v witness=%v %+v, sequential ok=%v witness=%v %+v",
						k, ok, bad != nil, st, seqOK, seqBad != nil, seqLinStats)
				}
				if bad != nil && bad.History().String() != seqBad.History().String() {
					t.Fatalf("k=%d: witness diverges:\ngot:\n%s\nsequential:\n%s", k, bad.History(), seqBad.History())
				}
			}
		})
	}
}

// TestCutHandsOverDuplicateFrontierNodes pins what the cut does NOT do: it
// neither deduplicates nor counts the node it hands over (the worker that
// takes the task does, against the set it shares with the others), so two
// frontier nodes that are one configuration are both handed over, and a
// completed run on the frontier is handed over like any other node.
func TestCutHandsOverDuplicateFrontierNodes(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 1, fetchinc), nil)
	for _, k := range []int{2, 6} {
		var st Stats
		e := newEngine(root, 12, Config{Dedup: true}, &st)
		handed := map[string]int{}
		done := 0
		e.cutDepth, e.cut = k, func(path []pathStep) error {
			if len(path) != k || e.sys.Steps() != k {
				t.Fatalf("cut at depth %d handed a path of %d steps at step %d", k, len(path), e.sys.Steps())
			}
			replayed := root.Clone()
			if err := replayPath(replayed, path); err != nil {
				t.Fatal(err)
			}
			if replayed.History().String() != e.sys.History().String() {
				t.Fatalf("path %v does not lead to the node it was cut at", path)
			}
			key, _ := e.sys.AppendConfigFingerprint(nil)
			handed[string(key)]++
			if e.sys.Done() {
				done++
			}
			return nil
		}
		if err := e.dfs(0, nil); err != nil {
			t.Fatal(err)
		}
		twice := 0
		for _, n := range handed {
			if n > 1 {
				twice++
			}
		}
		switch {
		case k == 2 && (twice == 0 || st.Deduped != 0):
			t.Fatalf("k=2: %d configurations handed over twice, %d deduplicated above the frontier; want some and none", twice, st.Deduped)
		case k == 6 && done == 0:
			t.Fatal("k=6: no completed run handed over at the frontier")
		}
	}
}

// TestParallelQuickRandomWorkloads cross-validates sequential and parallel
// exploration on random workloads, implementations, policies, depths and
// worker counts.
func TestParallelQuickRandomWorkloads(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2)
		var impl machine.Impl
		var workload [][]spec.Op
		var pol base.PolicyFor
		switch r.Intn(4) {
		case 0:
			impl = counter.CAS{}
			workload = sim.UniformWorkload(n, 1+r.Intn(2), fetchinc)
		case 1:
			impl = counter.Sloppy{}
			workload = sim.UniformWorkload(n, 1+r.Intn(2), fetchinc)
		case 2:
			impl = counter.Junk{}
			workload = sim.UniformWorkload(n, 1+r.Intn(2), fetchinc)
		default:
			impl = elconsensus.Impl{}
			w := make([][]spec.Op, n)
			for p := range w {
				w[p] = []spec.Op{spec.MakeOp1(spec.MethodPropose, int64(10*(p+1)))}
			}
			workload = w
			pol = base.SamePolicy(base.Window{K: r.Intn(3)})
		}
		depth := 5 + r.Intn(4)
		workers := 2 + r.Intn(7)
		dedup := r.Intn(2) == 0
		root, err := sim.NewSystem(impl, workload, pol, check.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		var seqH []string
		seqStats, err := Leaves(root, depth, Config{Workers: 1, Dedup: dedup}, func(leaf *sim.System) error {
			seqH = append(seqH, leaf.History().String())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var parH []string
		parStats, err := Leaves(root, depth, Config{Workers: workers, Dedup: dedup}, func(leaf *sim.System) error {
			h := leaf.History().String()
			mu.Lock()
			parH = append(parH, h)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if parStats != seqStats {
			t.Logf("seed %d (%s depth %d workers %d dedup %v): stats diverge: par %+v seq %+v",
				seed, impl.Name(), depth, workers, dedup, parStats, seqStats)
			return false
		}
		if dedup {
			// With dedup the leaf *configurations* are deterministic but the
			// recorded histories depend on the winning arrival path; only
			// the counts are comparable.
			if len(parH) != len(seqH) {
				t.Logf("seed %d: dedup leaf counts diverge: %d vs %d", seed, len(parH), len(seqH))
				return false
			}
			return true
		}
		sort.Strings(seqH)
		sort.Strings(parH)
		if !reflect.DeepEqual(parH, seqH) {
			t.Logf("seed %d (%s depth %d workers %d): leaf multisets diverge", seed, impl.Name(), depth, workers)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
