package explore

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/announce"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// The undo-based engine must be observationally identical to the retained
// clone-per-edge reference on every seed scenario: same Stats, same leaf
// histories in the same order, same valency classifications, same
// stable-node verdicts.

type scenario struct {
	name     string
	impl     machine.Impl
	workload [][]spec.Op
	policies base.PolicyFor
	depth    int
}

func seedScenarios(t *testing.T) []scenario {
	t.Helper()
	wrapJunk, err := announce.New(counter.Junk{}, announce.FetchIncCodec(), check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	propose := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	return []scenario{
		{
			name:     "cas-counter",
			impl:     counter.CAS{},
			workload: sim.UniformWorkload(2, 2, fetchinc),
			depth:    10,
		},
		{
			name:     "junk-counter",
			impl:     counter.Junk{},
			workload: sim.UniformWorkload(2, 2, fetchinc),
			depth:    9,
		},
		{
			name:     "announce-junk",
			impl:     wrapJunk,
			workload: sim.UniformWorkload(2, 1, fetchinc),
			depth:    8,
		},
		{
			name:     "el-consensus-never",
			impl:     elconsensus.Impl{},
			workload: propose,
			policies: base.SamePolicy(base.Never{}),
			depth:    10,
		},
		{
			name:     "el-consensus-window",
			impl:     elconsensus.Impl{},
			workload: propose,
			policies: base.SamePolicy(base.Window{K: 2}),
			depth:    11,
		},
		{
			name:     "sloppy-counter",
			impl:     counter.Sloppy{},
			workload: sim.UniformWorkload(2, 1, fetchinc),
			depth:    12,
		},
	}
}

// TestUndoEngineMatchesCloneEngineDFS compares the counting walk, Leaves
// with a no-op callback, on both engines.
func TestUndoEngineMatchesCloneEngineDFS(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			undoStats, err := Leaves(root, sc.depth, Config{}, noLeaf)
			if err != nil {
				t.Fatal(err)
			}
			cloneStats, err := CloneLeaves(root, sc.depth, noLeaf)
			if err != nil {
				t.Fatal(err)
			}
			if undoStats != cloneStats {
				t.Fatalf("stats diverge: undo %+v, clone %+v", undoStats, cloneStats)
			}
		})
	}
}

func TestUndoEngineMatchesCloneEngineLeafHistories(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			collect := func(explorer func(*sim.System, int, func(*sim.System) error) (Stats, error)) ([]string, Stats) {
				var hs []string
				st, err := explorer(root, sc.depth, func(leaf *sim.System) error {
					hs = append(hs, leaf.History().String())
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return hs, st
			}
			undoH, undoStats := collect(func(root *sim.System, maxDepth int, fn func(*sim.System) error) (Stats, error) {
				return Leaves(root, maxDepth, Config{}, fn)
			})
			cloneH, cloneStats := collect(CloneLeaves)
			if undoStats != cloneStats {
				t.Fatalf("stats diverge: undo %+v, clone %+v", undoStats, cloneStats)
			}
			if len(undoH) != len(cloneH) {
				t.Fatalf("leaf counts diverge: undo %d, clone %d", len(undoH), len(cloneH))
			}
			for i := range undoH {
				if undoH[i] != cloneH[i] {
					t.Fatalf("leaf %d diverges:\nundo:\n%s\nclone:\n%s", i, undoH[i], cloneH[i])
				}
			}
		})
	}
}

func TestUndoEngineMatchesCloneEngineValency(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			undoRep, err := Analyze(root, sc.depth, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cloneRep, err := CloneAnalyze(root, sc.depth)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(undoRep.Root, cloneRep.Root) {
				t.Errorf("root valence diverges: undo %+v, clone %+v", undoRep.Root, cloneRep.Root)
			}
			if undoRep.Univalent != cloneRep.Univalent || undoRep.Multivalent != cloneRep.Multivalent {
				t.Errorf("valence counts diverge: undo %d/%d, clone %d/%d",
					undoRep.Univalent, undoRep.Multivalent, cloneRep.Univalent, cloneRep.Multivalent)
			}
			if undoRep.AgreementViolations != cloneRep.AgreementViolations {
				t.Errorf("violations diverge: undo %d, clone %d",
					undoRep.AgreementViolations, cloneRep.AgreementViolations)
			}
			if undoRep.ViolationHistory != cloneRep.ViolationHistory {
				t.Errorf("violation histories diverge")
			}
			if !reflect.DeepEqual(undoRep.Criticals, cloneRep.Criticals) {
				t.Errorf("criticals diverge: undo %d, clone %d", len(undoRep.Criticals), len(cloneRep.Criticals))
			}
			if undoRep.Stats != cloneRep.Stats {
				t.Errorf("stats diverge: undo %+v, clone %+v", undoRep.Stats, cloneRep.Stats)
			}
		})
	}
}

func TestUndoEngineMatchesCloneEngineStableVerdicts(t *testing.T) {
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
			stable, undoStats, err := NodeStable(root, tc.verify, Config{}, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Reference verdict via the clone engine.
			tref := root.History().Len()
			obj := root.Impl().Spec()
			refStable := true
			cloneStats, err := CloneLeaves(root, tc.verify, func(leaf *sim.System) error {
				ok, err := check.TLinearizable(obj, leaf.History(), tref, check.Options{})
				if err != nil {
					return err
				}
				if !ok {
					refStable = false
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if stable != refStable {
				t.Fatalf("stability verdicts diverge: undo %v, clone %v", stable, refStable)
			}
			// The undo engine aborts on the first violation, so its stats can
			// only match when the node is stable (full enumeration).
			if stable && undoStats != cloneStats {
				t.Fatalf("stats diverge: undo %+v, clone %+v", undoStats, cloneStats)
			}
		})
	}
}

// TestUndoEngineQuickRandomWorkloads cross-validates the engines on random
// workloads, implementations and policies.
func TestUndoEngineQuickRandomWorkloads(t *testing.T) {
	methodsByImpl := map[string]func(r *rand.Rand, n int) [][]spec.Op{
		"counter": func(r *rand.Rand, n int) [][]spec.Op {
			w := make([][]spec.Op, n)
			for p := range w {
				for k := 0; k < 1+r.Intn(2); k++ {
					w[p] = append(w[p], fetchinc)
				}
			}
			return w
		},
		"consensus": func(r *rand.Rand, n int) [][]spec.Op {
			w := make([][]spec.Op, n)
			for p := range w {
				w[p] = []spec.Op{spec.MakeOp1(spec.MethodPropose, int64(10*(p+1)))}
			}
			return w
		},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2) // 2..3 processes
		var impl machine.Impl
		var workload [][]spec.Op
		var pol base.PolicyFor
		switch r.Intn(4) {
		case 0:
			impl = counter.CAS{}
			workload = methodsByImpl["counter"](r, n)
		case 1:
			impl = counter.Sloppy{}
			workload = methodsByImpl["counter"](r, n)
		case 2:
			impl = counter.Junk{}
			workload = methodsByImpl["counter"](r, n)
		default:
			impl = elconsensus.Impl{}
			workload = methodsByImpl["consensus"](r, n)
			pol = base.SamePolicy(base.Window{K: r.Intn(3)})
		}
		depth := 5 + r.Intn(4)
		root, err := sim.NewSystem(impl, workload, pol, check.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		var undoH, cloneH []string
		undoStats, err := Leaves(root, depth, Config{}, func(leaf *sim.System) error {
			undoH = append(undoH, leaf.History().String())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cloneStats, err := CloneLeaves(root, depth, func(leaf *sim.System) error {
			cloneH = append(cloneH, leaf.History().String())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if undoStats != cloneStats {
			t.Logf("seed %d (%s, depth %d): stats diverge: undo %+v clone %+v",
				seed, impl.Name(), depth, undoStats, cloneStats)
			return false
		}
		if !reflect.DeepEqual(undoH, cloneH) {
			t.Logf("seed %d (%s, depth %d): leaf histories diverge", seed, impl.Name(), depth)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEngineMatchesCloneEngine closes the three-way loop: the
// clone-per-edge reference, the sequential undo engine, and the parallel
// frontier-split engine must agree on Stats and valency reports for every
// seed scenario.
func TestParallelEngineMatchesCloneEngine(t *testing.T) {
	for _, sc := range seedScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			cloneStats, err := CloneLeaves(root, sc.depth, noLeaf)
			if err != nil {
				t.Fatal(err)
			}
			parStats, err := Leaves(root, sc.depth, Config{Workers: 4}, noLeaf)
			if err != nil {
				t.Fatal(err)
			}
			if parStats != cloneStats {
				t.Fatalf("stats diverge: parallel %+v, clone %+v", parStats, cloneStats)
			}
			cloneRep, err := CloneAnalyze(root, sc.depth)
			if err != nil {
				t.Fatal(err)
			}
			parRep, err := Analyze(root, sc.depth, Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parRep.Root, cloneRep.Root) {
				t.Errorf("root valence diverges: parallel %+v, clone %+v", parRep.Root, cloneRep.Root)
			}
			if parRep.Univalent != cloneRep.Univalent || parRep.Multivalent != cloneRep.Multivalent {
				t.Errorf("valence counts diverge: parallel %d/%d, clone %d/%d",
					parRep.Univalent, parRep.Multivalent, cloneRep.Univalent, cloneRep.Multivalent)
			}
			if parRep.AgreementViolations != cloneRep.AgreementViolations {
				t.Errorf("violations diverge: parallel %d, clone %d",
					parRep.AgreementViolations, cloneRep.AgreementViolations)
			}
			if parRep.ViolationHistory != cloneRep.ViolationHistory {
				t.Errorf("violation histories diverge")
			}
			if !reflect.DeepEqual(parRep.Criticals, cloneRep.Criticals) {
				t.Errorf("criticals diverge: parallel %d, clone %d", len(parRep.Criticals), len(cloneRep.Criticals))
			}
			if parRep.Stats != cloneRep.Stats {
				t.Errorf("stats diverge: parallel %+v, clone %+v", parRep.Stats, cloneRep.Stats)
			}
		})
	}
}

// TestDedupMatchesExactAnalysis checks that the deduplicating valency
// analysis reaches the same verdicts as the exact one while merging nodes.
func TestDedupMatchesExactAnalysis(t *testing.T) {
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
			name: "el-consensus-never",
			impl: elconsensus.Impl{},
			workload: [][]spec.Op{
				{spec.MakeOp1(spec.MethodPropose, 10)},
				{spec.MakeOp1(spec.MethodPropose, 20)},
			},
			policies: base.SamePolicy(base.Never{}),
			depth:    12,
		},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			root := mustSystem(t, sc.impl, sc.workload, sc.policies)
			exact, err := Analyze(root, sc.depth, Config{})
			if err != nil {
				t.Fatal(err)
			}
			dedup, err := Analyze(root, sc.depth, Config{Dedup: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact.Root, dedup.Root) {
				t.Errorf("root valence diverges: exact %+v, dedup %+v", exact.Root, dedup.Root)
			}
			if (exact.AgreementViolations > 0) != (dedup.AgreementViolations > 0) {
				t.Errorf("violation verdicts diverge: exact %d, dedup %d",
					exact.AgreementViolations, dedup.AgreementViolations)
			}
			if (len(exact.Criticals) > 0) != (len(dedup.Criticals) > 0) {
				t.Errorf("critical verdicts diverge: exact %d, dedup %d",
					len(exact.Criticals), len(dedup.Criticals))
			}
			if dedup.Stats.Deduped == 0 {
				t.Error("symmetric workload produced no merged configurations")
			}
			if dedup.Stats.Nodes >= exact.Stats.Nodes {
				t.Errorf("dedup visited %d nodes, exact %d — no reduction", dedup.Stats.Nodes, exact.Stats.Nodes)
			}
		})
	}
}

// TestDedupDFSLeafReduction checks the generic visited-set option on the
// counting walk.
func TestDedupDFSLeafReduction(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	exact, err := Leaves(root, 12, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := Leaves(root, 12, Config{Dedup: true}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if dedup.Deduped == 0 || dedup.Nodes >= exact.Nodes {
		t.Fatalf("dedup ineffective: exact %+v, dedup %+v", exact, dedup)
	}
}

// TestFingerprintDistinguishesConfigurations sanity-checks the fingerprint:
// sibling configurations differ, and advancing then undoing restores the
// root fingerprint exactly.
func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 1, fetchinc), nil)
	work := root.Clone()
	work.EnableUndo()
	rootFP, ok := work.Fingerprint()
	if !ok {
		t.Fatal("cas-counter processes must be fingerprintable")
	}
	var childFPs []uint64
	for p := 0; p < work.NumProcs(); p++ {
		if err := work.AdvanceResp(p, mustCands(t, work, p)[0]); err != nil {
			t.Fatal(err)
		}
		fp, ok := work.Fingerprint()
		if !ok {
			t.Fatal("fingerprint lost after advance")
		}
		childFPs = append(childFPs, fp)
		if err := work.Undo(); err != nil {
			t.Fatal(err)
		}
		fp2, _ := work.Fingerprint()
		if fp2 != rootFP {
			t.Fatalf("undo did not restore the root fingerprint: %x vs %x", fp2, rootFP)
		}
	}
	sort.Slice(childFPs, func(i, j int) bool { return childFPs[i] < childFPs[j] })
	for i := 1; i < len(childFPs); i++ {
		if childFPs[i] == childFPs[i-1] {
			t.Fatalf("sibling configurations share fingerprint %x", childFPs[i])
		}
	}
	if childFPs[0] == rootFP {
		t.Fatal("child shares the root fingerprint")
	}
}

func mustCands(t *testing.T, s *sim.System, p int) []int64 {
	t.Helper()
	cands, err := s.Candidates(p)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}
