package base

import (
	"sort"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

func TestAtomicRegister(t *testing.T) {
	a, err := NewAtomic("R", spec.NewObject(spec.Register{}))
	if err != nil {
		t.Fatal(err)
	}
	cands, err := a.AppendCandidates(nil, 0, spec.MakeOp(spec.MethodRead))
	if err != nil || len(cands) != 1 || cands[0] != 0 {
		t.Fatalf("read candidates = %v, %v", cands, err)
	}
	if err := a.Commit(0, spec.MakeOp1(spec.MethodWrite, 7), 0); err != nil {
		t.Fatal(err)
	}
	cands, _ = a.AppendCandidates(nil, 1, spec.MakeOp(spec.MethodRead))
	if len(cands) != 1 || cands[0] != 7 {
		t.Fatalf("read after write = %v", cands)
	}
	if a.Steps() != 1 {
		t.Fatalf("steps = %d", a.Steps())
	}
	if a.State() != int64(7) {
		t.Fatalf("state = %v", a.State())
	}
	// Committing a wrong response is rejected.
	if err := a.Commit(0, spec.MakeOp(spec.MethodRead), 99); err == nil {
		t.Error("atomic commit accepted wrong response")
	}
	// Unknown op is rejected.
	if _, err := a.AppendCandidates(nil, 0, spec.MakeOp("zap")); err == nil {
		t.Error("atomic candidates accepted unknown op")
	}
	// Clone is independent.
	c := a.Clone()
	if err := c.Commit(0, spec.MakeOp1(spec.MethodWrite, 9), 0); err != nil {
		t.Fatal(err)
	}
	if a.State() != int64(7) {
		t.Error("clone mutation leaked into original")
	}
}

func TestAtomicRejectsNondeterministicType(t *testing.T) {
	flip := spec.MakeOp("flip")
	nd := &spec.TableType{
		TypeName: "coin", NStates: 1, Ops: []spec.Op{flip},
		Delta: map[spec.TableKey][]spec.Outcome{
			{State: 0, Op: flip}: {{Resp: 0, Next: int64(0)}, {Resp: 1, Next: int64(0)}},
		},
	}
	if _, err := NewAtomic("N", spec.NewObject(nd)); err == nil {
		t.Error("NewAtomic accepted a nondeterministic type")
	}
	if _, err := NewEventual("N", spec.NewObject(nd), Never{}, check.Options{}); err == nil {
		t.Error("NewEventual accepted a nondeterministic type")
	}
	if _, err := NewEventual("N", spec.NewObject(spec.Register{}), nil, check.Options{}); err == nil {
		t.Error("NewEventual accepted a nil policy")
	}
}

func TestEventualRegisterCandidates(t *testing.T) {
	e, err := NewEventual("R", spec.NewObject(spec.Register{}), Never{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh object: only the initial value.
	cands, err := e.AppendCandidates(nil, 0, spec.MakeOp(spec.MethodRead))
	if err != nil || len(cands) != 1 || cands[0] != 0 {
		t.Fatalf("fresh read candidates = %v, %v", cands, err)
	}
	// p0 writes 5; p1 writes 9.
	if err := e.Commit(0, spec.MakeOp1(spec.MethodWrite, 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, spec.MakeOp1(spec.MethodWrite, 9), 0); err != nil {
		t.Fatal(err)
	}
	// p2 (never wrote) may see 5, 9, or the initial 0. True response (9)
	// must be first.
	cands, err = e.AppendCandidates(nil, 2, spec.MakeOp(spec.MethodRead))
	if err != nil {
		t.Fatal(err)
	}
	if cands[0] != 9 {
		t.Fatalf("true response not first: %v", cands)
	}
	sorted := append([]int64(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	want := []int64{0, 5, 9}
	if len(sorted) != 3 || sorted[0] != want[0] || sorted[1] != want[1] || sorted[2] != want[2] {
		t.Fatalf("candidates = %v, want %v", sorted, want)
	}
	// p0 wrote, so the initial value is off the table for p0.
	cands, err = e.AppendCandidates(nil, 0, spec.MakeOp(spec.MethodRead))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c == 0 {
			t.Fatalf("p0 offered the initial value after writing: %v", cands)
		}
	}
}

func TestEventualStabilization(t *testing.T) {
	e, err := NewEventual("R", spec.NewObject(spec.Register{}), Window{K: 2}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stabilized() {
		t.Fatal("stabilized before any action with window 2")
	}
	if err := e.Commit(0, spec.MakeOp1(spec.MethodWrite, 5), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, spec.MakeOp1(spec.MethodWrite, 9), 0); err != nil {
		t.Fatal(err)
	}
	if !e.Stabilized() {
		t.Fatal("not stabilized after window")
	}
	// Post-stabilization reads offer only the truth.
	cands, err := e.AppendCandidates(nil, 2, spec.MakeOp(spec.MethodRead))
	if err != nil || len(cands) != 1 || cands[0] != 9 {
		t.Fatalf("stabilized candidates = %v, %v", cands, err)
	}
	// Post-stabilization commits with a lie are rejected.
	if err := e.Commit(2, spec.MakeOp(spec.MethodRead), 5); err == nil {
		t.Error("stabilized commit accepted a stale response")
	}
	if err := e.Commit(2, spec.MakeOp(spec.MethodRead), 9); err != nil {
		t.Fatal(err)
	}
}

func TestEventualMutationsAlwaysApply(t *testing.T) {
	// Even while lying, the true state advances in commit order.
	e, err := NewEventual("F", spec.NewObject(spec.FetchInc{}), Never{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cands, err := e.AppendCandidates(nil, 0, spec.MakeOp(spec.MethodFetchInc))
		if err != nil {
			t.Fatal(err)
		}
		if cands[0] != int64(i) {
			t.Fatalf("true response = %d, want %d", cands[0], i)
		}
		if err := e.Commit(0, spec.MakeOp(spec.MethodFetchInc), cands[len(cands)-1]); err != nil {
			t.Fatal(err)
		}
	}
	if e.State() != int64(3) {
		t.Fatalf("state = %v, want 3", e.State())
	}
}

func TestEventualCloneIndependence(t *testing.T) {
	e, err := NewEventual("R", spec.NewObject(spec.Register{}), Window{K: 10}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(0, spec.MakeOp1(spec.MethodWrite, 5), 0); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if err := c.Commit(1, spec.MakeOp1(spec.MethodWrite, 9), 0); err != nil {
		t.Fatal(err)
	}
	// The clone's write must not pollute the original's candidate set.
	cands, err := e.AppendCandidates(nil, 2, spec.MakeOp(spec.MethodRead))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cands {
		if v == 9 {
			t.Fatalf("clone write leaked: %v", cands)
		}
	}
	if e.Steps() != 1 || c.Steps() != 2 {
		t.Fatalf("steps: orig %d clone %d", e.Steps(), c.Steps())
	}
}

func TestPolicies(t *testing.T) {
	if (Window{K: 3}).Stabilized(2) || !(Window{K: 3}).Stabilized(3) {
		t.Error("window policy boundary wrong")
	}
	if (Never{}).Stabilized(1 << 30) {
		t.Error("never policy stabilized")
	}
	if !Immediate().Stabilized(0) {
		t.Error("immediate policy not stabilized at 0")
	}
	if (Window{K: 3}).Name() == "" || (Never{}).Name() == "" {
		t.Error("policies must have names")
	}
}

func TestInstantiate(t *testing.T) {
	bases := []machine.Base{
		{Name: "A", Obj: spec.NewObject(spec.Register{})},
		{Name: "B", Obj: spec.NewObject(spec.Register{}), Eventually: true},
	}
	objs, err := Instantiate(bases, SamePolicy(Window{K: 4}), check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objects = %d", len(objs))
	}
	if _, ok := objs[0].(*Atomic); !ok {
		t.Error("base A should be atomic")
	}
	ev, ok := objs[1].(*Eventual)
	if !ok {
		t.Fatal("base B should be eventual")
	}
	if ev.Policy().Name() != (Window{K: 4}).Name() {
		t.Errorf("policy = %s", ev.Policy().Name())
	}
	// nil policy function defaults to Immediate.
	objs, err = Instantiate(bases, nil, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !objs[1].(*Eventual).Stabilized() {
		t.Error("default policy should be immediate")
	}
}
