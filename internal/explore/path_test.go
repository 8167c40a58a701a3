package explore

import (
	"testing"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/eltestset"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// perLeafLinearizableEverywhere is LinearizableEverywhere as it was before
// the path checker: check.Linearizable from scratch on every leaf of the
// sequential walk, stopping at the first violation. Kept as the oracle the
// path-checked search is pinned to.
func perLeafLinearizableEverywhere(root *sim.System, maxDepth int, opts check.Options) (bool, *sim.System, Stats, error) {
	specs := implSpecs(root)
	var bad *sim.System
	st, err := Leaves(root, maxDepth, Config{Workers: 1}, func(leaf *sim.System) error {
		ok, err := check.Linearizable(specs, leaf.History(), opts)
		if err == nil && !ok {
			bad, err = leaf.Clone(), errViolation
		}
		return err
	})
	if err == errViolation {
		err = nil
	}
	return bad == nil, bad, st, err
}

// TestPathCheckerMatchesLinearizable: on every leaf of each tree — not only
// up to the first violation — the verdict the engine reads off its path
// checker is check.Linearizable's, kernel and generic engine alike.
func TestPathCheckerMatchesLinearizable(t *testing.T) {
	proposals := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	readWrite := [][]spec.Op{
		{spec.MakeOp1(spec.MethodWrite, 1), spec.MakeOp(spec.MethodRead)},
		{spec.MakeOp1(spec.MethodWrite, 2), spec.MakeOp(spec.MethodRead)},
	}
	never := base.SamePolicy(base.Never{})
	cases := []struct {
		name     string
		impl     machine.Impl
		workload [][]spec.Op
		policies base.PolicyFor
		depth    int
	}{
		{"cas-counter", counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil, 22},
		{"cas-counter-horizon", counter.CAS{}, sim.UniformWorkload(3, 2, fetchinc), nil, 9},
		{"junk-counter", counter.Junk{}, sim.UniformWorkload(2, 2, fetchinc), nil, 12},
		{"sloppy-counter", counter.Sloppy{}, sim.UniformWorkload(2, 2, fetchinc), nil, 14},
		{"warmup-counter", counter.Warmup{Threshold: 2}, sim.UniformWorkload(2, 3, fetchinc), nil, 14},
		{"el-register", passthrough.New("el-reg", spec.NewObject(spec.Register{}), true), readWrite, never, 10},
		{"el-consensus", elconsensus.Impl{}, proposals, never, 14},
	}
	leaves, violations := 0, 0
	for _, tc := range cases {
		root := mustSystem(t, tc.impl, tc.workload, tc.policies)
		specs := implSpecs(root)
		var st Stats
		e := newEngine(root, tc.depth, Config{}, &st)
		err := e.leaves(0, func(leaf *sim.System) error {
			got, err := e.linearizable(check.Options{})
			if err != nil {
				return err
			}
			for _, opts := range []check.Options{{}, {NoFastPath: true}} {
				want, err := check.Linearizable(specs, leaf.History(), opts)
				if err != nil {
					return err
				}
				if got != want {
					t.Fatalf("%s: path says %v, check.Linearizable(%+v) says %v on\n%s", tc.name, got, opts, want, leaf.History())
				}
			}
			if !got {
				violations++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Leaves == 0 || e.path == nil || e.path.Len() != root.History().Len() {
			t.Fatalf("%s: %d leaves, path checker %v", tc.name, st.Leaves, e.path)
		}
		leaves += st.Leaves
	}
	if violations == 0 || violations == leaves {
		t.Fatalf("%d of %d leaves violate; want both verdicts covered", violations, leaves)
	}
	t.Logf("%d leaves, %d violations", leaves, violations)
}

// TestPathCheckerHoldsLongPaths: a path with more operations than a mask
// has bits stays in the path checker, which keys its masks by open
// operation, with the verdicts the per-leaf search gives where that search
// has a fast path, and a verdict where it has none.
func TestPathCheckerHoldsLongPaths(t *testing.T) {
	const ops = check.MaxOpsPerObject + 2
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(1, ops, fetchinc), nil)
	var st Stats
	e := newEngine(root, 4*ops, Config{}, &st)
	err := e.leaves(0, func(leaf *sim.System) error {
		ok, err := e.linearizable(check.Options{})
		if !ok || e.path.Len() != leaf.History().Len() || leaf.History().Len() != 2*ops {
			t.Fatalf("ok=%v, checker holds %d of %d events", ok, e.path.Len(), leaf.History().Len())
		}
		return err
	})
	if err != nil || st.Leaves != 1 {
		t.Fatalf("err %v, stats %+v", err, st)
	}
	for _, impl := range []machine.Impl{counter.CAS{}, counter.Junk{}} {
		root := mustSystem(t, impl, sim.UniformWorkload(1, ops, fetchinc), nil)
		wantOK, wantBad, wantSt, err := perLeafLinearizableEverywhere(root, 4*ops, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			ok, bad, st, err := LinearizableEverywhere(root, 4*ops, Config{Workers: w}, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (bad == nil) != (wantBad == nil) || (ok && st != wantSt) {
				t.Fatalf("%s workers=%d: ok=%v witness=%v stats %+v; per leaf: ok=%v witness=%v stats %+v",
					impl.Name(), w, ok, bad != nil, st, wantOK, wantBad != nil, wantSt)
			}
		}
	}
	// A 70-operation test&set leaf, past the mask search's cap: the
	// explorer decides it on its own path checker.
	root = mustSystem(t, eltestset.FromCAS{}, sim.UniformWorkload(1, 70, spec.MakeOp(spec.MethodTestSet)), nil)
	for _, w := range []int{1, 2} {
		ok, bad, st, err := LinearizableEverywhere(root, 400, Config{Workers: w}, check.Options{})
		if err != nil || !ok || bad != nil || st.Nodes != 141 || st.Leaves != 1 || st.Truncated {
			t.Fatalf("cas-testset workers=%d: ok=%v witness=%v err=%v stats %+v", w, ok, bad != nil, err, st)
		}
	}
}

// TestLinearizableEverywhereLeafAllocs pins what the path checker is for:
// judging a leaf allocates nothing on top of walking to it. (Rebuilding the
// operation table per leaf cost about 16 allocations a leaf.) It also pins
// the walk itself: an edge recycles programmes and candidate buffers, so
// the 18 929-node tree costs a bounded set-up, not allocations per node.
func TestLinearizableEverywhereLeafAllocs(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	var leaves int
	walk := testing.AllocsPerRun(3, func() {
		st, err := Leaves(root, 22, Config{Workers: 1}, func(*sim.System) error { return nil })
		if err != nil || st.Nodes != 18929 {
			t.Fatalf("err=%v nodes %d, want 18929", err, st.Nodes)
		}
		leaves = st.Leaves
	})
	if walk >= 200 {
		t.Fatalf("the walk made %v allocations, want < 200", walk)
	}
	judged := testing.AllocsPerRun(3, func() {
		ok, _, st, err := LinearizableEverywhere(root, 22, Config{Workers: 1}, check.Options{})
		if err != nil || !ok || st.Leaves != leaves {
			t.Fatalf("ok=%v err=%v leaves %d, walk saw %d", ok, err, st.Leaves, leaves)
		}
	})
	if perLeaf := (judged - walk) / float64(leaves); perLeaf >= 0.1 {
		t.Fatalf("%.2f allocations per leaf on top of the walk (%v judged, %v walked, %d leaves)", perLeaf, judged, walk, leaves)
	}
}

// The walk's allocations past cas-counter: an edge steps its base objects
// and, before an eventually linearizable base stabilizes, computes its
// candidate set into reused buffers. What is left is the programmes' own
// state (announced-cas's scan lists, slog's replicas).
func TestWalkAllocs(t *testing.T) {
	for _, tc := range []struct {
		impl         string
		procs, ops   int
		depth, nodes int
		policy       base.Policy
		below        float64
	}{
		{"announced-cas", 2, 1, 40, 86635, base.Immediate(), 340000},
		{"slog-register", 2, 2, 16, 811, base.Immediate(), 1250},
		{"el-register", 2, 2, 14, 639, base.Never{}, 100},
	} {
		impl, err := registry.Impl(tc.impl)
		if err != nil {
			t.Fatal(err)
		}
		root := mustSystem(t, impl, registry.Workload(impl, tc.procs, tc.ops), base.SamePolicy(tc.policy))
		allocs := testing.AllocsPerRun(1, func() {
			st, err := Leaves(root, tc.depth, Config{Workers: 1}, noLeaf)
			if err != nil || st.Nodes != tc.nodes {
				t.Fatalf("%s: err=%v nodes %d, want %d", tc.impl, err, st.Nodes, tc.nodes)
			}
		})
		t.Logf("%s: %v allocations over %d nodes", tc.impl, allocs, tc.nodes)
		if allocs >= tc.below {
			t.Errorf("%s: the walk made %v allocations, want < %v", tc.impl, allocs, tc.below)
		}
	}
}
