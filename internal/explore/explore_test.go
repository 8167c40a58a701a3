package explore

import (
	"testing"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

var fetchinc = spec.MakeOp(spec.MethodFetchInc)

func mustSystem(t *testing.T, impl machine.Impl, workload [][]spec.Op, pol base.PolicyFor) *sim.System {
	t.Helper()
	s, err := sim.NewSystem(impl, workload, pol, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// noLeaf is the leaf callback of a walk that only counts.
func noLeaf(*sim.System) error { return nil }

func TestDFSCountsTinyTree(t *testing.T) {
	// CAS counter, 1 process, 1 op: read, cas, return — a single path.
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(1, 1, fetchinc), nil)
	st, err := Leaves(root, 10, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", st.Leaves)
	}
	if st.Nodes != 4 { // root + 3 steps
		t.Fatalf("nodes = %d, want 4", st.Nodes)
	}
	if st.Truncated {
		t.Fatal("tiny tree should not truncate")
	}
}

func TestDFSTruncation(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	st, err := Leaves(root, 3, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Fatal("depth 3 must truncate a 12-step tree")
	}
}

func TestCASCounterLinearizableEverywhere(t *testing.T) {
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	// Worst-case run length: 12 base steps plus 2 extra steps per failed
	// CAS, and each failure is charged to another process's success (at
	// most 4), so 22 covers every interleaving.
	ok, bad, st, err := LinearizableEverywhere(root, 22, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("CAS counter violated linearizability:\n%s", bad.History())
	}
	if st.Leaves == 0 || st.Truncated {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSloppyCounterViolationFoundExhaustively(t *testing.T) {
	root := mustSystem(t, counter.Sloppy{}, sim.UniformWorkload(2, 1, fetchinc), nil)
	ok, bad, _, err := LinearizableEverywhere(root, 10, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("exhaustive exploration missed the sloppy counter's duplicate-response interleaving")
	}
	if bad == nil {
		t.Fatal("no violating leaf returned")
	}
	// But every leaf is weakly consistent (the counter always counts its
	// own increments).
	wok, wbad, _, err := WeaklyConsistentEverywhere(root, 10, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wok {
		t.Fatalf("sloppy counter violated weak consistency:\n%s", wbad.History())
	}
}

func TestEventualBaseBranching(t *testing.T) {
	// A passthrough register over an eventually linearizable base: the
	// exploration must branch over weakly consistent responses, so with
	// the Never policy more leaves exist than with Immediate.
	impl := passthrough.New("el-reg", spec.NewObject(spec.Register{}), true)
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodWrite, 1), spec.MakeOp(spec.MethodRead)},
		{spec.MakeOp1(spec.MethodWrite, 2), spec.MakeOp(spec.MethodRead)},
	}
	never := mustSystem(t, impl, w, base.SamePolicy(base.Never{}))
	atomicish := mustSystem(t, impl, w, base.SamePolicy(base.Immediate()))
	stNever, err := Leaves(never, 10, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	stAtomic, err := Leaves(atomicish, 10, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if stNever.Leaves <= stAtomic.Leaves {
		t.Fatalf("never-policy leaves %d should exceed immediate-policy leaves %d",
			stNever.Leaves, stAtomic.Leaves)
	}
}

func TestValencyBrokenRegisterConsensus(t *testing.T) {
	// Proposition 16's algorithm on ATOMIC registers is not a linearizable
	// consensus: exhaustive valency analysis finds runs whose completed
	// propose operations disagree. (Registers cannot solve consensus; the
	// paper's Proposition 15/Corollary 19 machinery rests on this.)
	impl := elconsensus.Impl{AtomicBases: true}
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	root := mustSystem(t, impl, w, nil)
	rep, err := Analyze(root, 16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Truncated {
		t.Fatalf("analysis truncated: %+v", rep.Stats)
	}
	if rep.AgreementViolations == 0 {
		t.Fatal("register consensus should violate agreement on some interleaving")
	}
	if !rep.Root.Multivalent() {
		t.Fatalf("root should be multivalent: %v", rep.Root.Values())
	}
}

func TestValencyStrongObjectPivot(t *testing.T) {
	// A consensus object as base: the protocol is correct, the root is
	// multivalent, and every critical configuration's pending actions are
	// on the same strong (consensus) object — the Proposition 15 case
	// analysis in the positive.
	impl := passthrough.New("cons", spec.NewObject(spec.Consensus{}), false)
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	root := mustSystem(t, impl, w, nil)
	rep, err := Analyze(root, 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgreementViolations != 0 {
		t.Fatalf("base-consensus protocol violated agreement:\n%s", rep.ViolationHistory)
	}
	if !rep.Root.Multivalent() {
		t.Fatalf("root should be multivalent: %v", rep.Root.Values())
	}
	if len(rep.Criticals) == 0 {
		t.Fatal("no critical configuration found")
	}
	for _, crit := range rep.Criticals {
		if !crit.SameObject {
			t.Errorf("critical configuration at depth %d has pending actions on different objects: %+v",
				crit.Depth, crit.Pending)
		}
		for _, pa := range crit.Pending {
			if pa.BaseType != "consensus" {
				t.Errorf("critical pivot on %s, want consensus", pa.BaseType)
			}
			if pa.Eventually {
				t.Error("pivot must not be eventually linearizable")
			}
		}
	}
}

func TestValencyELConsensusDisagreesBeforeStabilization(t *testing.T) {
	// Proposition 16's implementation over eventually linearizable
	// registers that never stabilize within the horizon: weakly consistent
	// lies let two processes return different values — which is exactly
	// why it is only EVENTUALLY linearizable.
	impl := elconsensus.Impl{}
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	root := mustSystem(t, impl, w, base.SamePolicy(base.Never{}))
	rep, err := Analyze(root, 16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgreementViolations == 0 {
		t.Fatal("unstabilized EL consensus should disagree on some branch")
	}
}

func TestStableNodeCASCounterRootStable(t *testing.T) {
	// The CAS counter is linearizable, so the root itself is stable.
	root := mustSystem(t, counter.CAS{}, sim.UniformWorkload(2, 2, fetchinc), nil)
	res, err := FindStable(root, 4, 14, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 0 || res.T != 0 {
		t.Fatalf("root should be stable: depth %d t %d", res.Depth, res.T)
	}
}

func TestStableNodeWarmupCounter(t *testing.T) {
	// The warmup counter's root is NOT stable (warmup garbage ahead), but
	// a stable configuration exists once the shared count passes the
	// threshold — Claim 1 of Proposition 18, in the bounded world.
	impl := counter.Warmup{Threshold: 2}
	root := mustSystem(t, impl, sim.UniformWorkload(2, 2, fetchinc), nil)

	stable0, _, err := NodeStable(root, 14, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stable0 {
		t.Fatal("warmup counter root must not be stable")
	}

	res, err := FindStable(root, 8, 14, Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth == 0 {
		t.Fatal("stable node at root contradicts the check above")
	}
	// The stable configuration must have pushed the shared count past the
	// threshold or be positioned so no stale answer can follow.
	states := res.System.BaseStates()
	if v, ok := states["C"].Int(); ok && v < 2 && res.System.History().Len() < 2 {
		t.Fatalf("stable node with count %d and history %d looks premature", v, res.System.History().Len())
	}
}

func TestValenceValues(t *testing.T) {
	v := Valence{Decisions: map[int64]bool{3: true, 1: true, 2: true}}
	vals := v.Values()
	if len(vals) != 3 || vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
		t.Fatalf("Values = %v", vals)
	}
	if !v.Multivalent() {
		t.Error("three decisions should be multivalent")
	}
	uni := Valence{Decisions: map[int64]bool{7: true}}
	if uni.Multivalent() {
		t.Error("one decision should be univalent")
	}
}

func TestFindStableFailsWithinTinyBounds(t *testing.T) {
	// With a search horizon too small to reach stabilization, FindStable
	// must report failure rather than a bogus configuration.
	impl := counter.Warmup{Threshold: 50}
	root := mustSystem(t, impl, sim.UniformWorkload(2, 3, fetchinc), nil)
	if _, err := FindStable(root, 2, 10, Config{}, check.Options{}); err == nil {
		t.Fatal("expected failure for unreachable stabilization")
	}
}
