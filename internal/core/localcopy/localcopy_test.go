package localcopy

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

func elRegisterImpl() machine.Impl {
	return passthrough.New("reg", spec.NewObject(spec.Register{}), true)
}

func TestNewValidation(t *testing.T) {
	// Theorem 12 requires all bases eventually linearizable.
	if _, err := New(counter.CAS{}, 0); err == nil {
		t.Fatal("accepted linearizable bases")
	}
	lc, err := New(elRegisterImpl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(lc.Name(), "-localcopy") {
		t.Errorf("name = %q", lc.Name())
	}
	if len(lc.Bases()) != 0 {
		t.Error("local-copy implementation must use no shared objects")
	}
}

func TestLocalCopyIsWaitFreeOneStepPerOp(t *testing.T) {
	// Every operation of I′ completes in exactly one step: the whole inner
	// programme runs locally (this is the wait-freedom part of the
	// theorem, in the strongest possible form).
	lc, err := New(elRegisterImpl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodWrite, 1), spec.MakeOp(spec.MethodRead)},
		{spec.MakeOp1(spec.MethodWrite, 2), spec.MakeOp(spec.MethodRead)},
	}
	res, err := sim.Run(sim.Config{Impl: lc, Workload: w, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 {
		t.Fatalf("steps = %d, want 4 (one per operation)", res.Steps)
	}
}

func TestLocalCopyHistoriesWeaklyConsistent(t *testing.T) {
	// "Note that using a local copy of each object ensures the responses
	// satisfy weak consistency" — every leaf history of I′'s execution
	// tree satisfies Definition 1.
	lc, err := New(elRegisterImpl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodWrite, 1), spec.MakeOp(spec.MethodRead)},
		{spec.MakeOp1(spec.MethodWrite, 2), spec.MakeOp(spec.MethodRead)},
	}
	root, err := sim.NewSystem(lc, w, nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	ok, bad, _, err := explore.WeaklyConsistentEverywhere(root, 8, explore.Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("local-copy history violates weak consistency:\n%s", bad.History())
	}
}

func TestLocalCopyNonTrivialTypeNotLinearizable(t *testing.T) {
	// The register is a non-trivial type (Definition 13), so the theorem's
	// contrapositive predicts I′ cannot be linearizable: exploration must
	// exhibit a violation (a process missing another's write forever).
	lc, err := New(elRegisterImpl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]spec.Op{
		{spec.MakeOp1(spec.MethodWrite, 1)},
		{spec.MakeOp(spec.MethodRead), spec.MakeOp(spec.MethodRead)},
	}
	root, err := sim.NewSystem(lc, w, nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	ok, bad, _, err := explore.LinearizableEverywhere(root, 8, explore.Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("local-copy register appeared linearizable; Theorem 12 would be violated")
	}
	if bad == nil {
		t.Fatal("no violating history returned")
	}
}

func TestLocalCopyTrivialTypeIsLinearizable(t *testing.T) {
	// A constant object is trivial, and its local-copy implementation is
	// perfectly linearizable — the other direction of Proposition 14.
	ct := spec.ConstantType(42)
	inner := passthrough.New("const", spec.NewObject(ct), true)
	lc, err := New(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	get := spec.MakeOp("get")
	w := [][]spec.Op{{get, get}, {get}}
	root, err := sim.NewSystem(lc, w, nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	ok, bad, _, err := explore.LinearizableEverywhere(root, 8, explore.Config{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("constant local copy not linearizable:\n%s", bad.History())
	}
}

func TestLocalCopySoloMatchesInner(t *testing.T) {
	// A solo process cannot distinguish I′ from I (the indistinguishability
	// step in the wait-freedom argument): solo histories agree.
	inner := elRegisterImpl()
	lc, err := New(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := [][]spec.Op{{
		spec.MakeOp1(spec.MethodWrite, 5),
		spec.MakeOp(spec.MethodRead),
		spec.MakeOp1(spec.MethodWrite, 6),
		spec.MakeOp(spec.MethodRead),
	}}
	resInner, err := sim.Run(sim.Config{Impl: inner, Workload: w, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	resLC, err := sim.Run(sim.Config{Impl: lc, Workload: w, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	opsInner := resInner.History.Operations()
	opsLC := resLC.History.Operations()
	if len(opsInner) != len(opsLC) {
		t.Fatalf("op counts differ: %d vs %d", len(opsInner), len(opsLC))
	}
	for i := range opsInner {
		if opsInner[i].Resp != opsLC[i].Resp {
			t.Fatalf("solo op %d: inner %d, localcopy %d", i, opsInner[i].Resp, opsLC[i].Resp)
		}
	}
}

func TestLocalCopyCloneIndependence(t *testing.T) {
	lc, err := New(elRegisterImpl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := lc.NewProcess(0, 1)
	p.Begin(spec.MakeOp1(spec.MethodWrite, 9))
	if act := p.Step(0); act.Kind != machine.ActReturn {
		t.Fatalf("write action = %v", act)
	}
	q := p.CloneInto(nil)
	q.Begin(spec.MakeOp1(spec.MethodWrite, 3))
	if act := q.Step(0); act.Kind != machine.ActReturn {
		t.Fatal("clone write failed")
	}
	p.Begin(spec.MakeOp(spec.MethodRead))
	act := p.Step(0)
	if act.Ret != 9 {
		t.Fatalf("original read %d after clone write, want 9", act.Ret)
	}
}

func TestLocalCopyPanicsOnRunawayInner(t *testing.T) {
	// An inner programme that loops forever on a local copy violates the
	// obstruction-freedom hypothesis; the transformation reports it.
	inner := &loopImpl{}
	lc, err := New(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := lc.NewProcess(0, 1)
	p.Begin(spec.MakeOp(spec.MethodRead))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for runaway inner programme")
		}
	}()
	p.Step(0)
}

// loopImpl's programme reads its base register forever.
type loopImpl struct{}

func (loopImpl) Name() string      { return "loop" }
func (loopImpl) Spec() spec.Object { return spec.NewObject(spec.Register{}) }
func (loopImpl) Bases() []machine.Base {
	return []machine.Base{{Name: "R", Obj: spec.NewObject(spec.Register{}), Eventually: true}}
}
func (loopImpl) NewProcess(p, n int) machine.Process { return &loopProc{} }

type loopProc struct{}

func (l *loopProc) Begin(op spec.Op) {}
func (l *loopProc) Step(resp int64) machine.Action {
	return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
}
func (l *loopProc) CloneInto(dst machine.Process) machine.Process {
	return machine.Reuse[loopProc](dst)
}
