package elconsensus

import (
	"testing"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// soloDrive runs one operation solo against atomic base registers.
func soloDrive(t *testing.T, impl machine.Impl, proc machine.Process, states []spec.State, op spec.Op) int64 {
	t.Helper()
	bases := impl.Bases()
	proc.Begin(op)
	resp := int64(0)
	for i := 0; i < 1000; i++ {
		act := proc.Step(resp)
		if act.Kind == machine.ActReturn {
			return act.Ret
		}
		out, n := bases[act.Obj].Obj.Type.Step(states[act.Obj], act.Op, 0)
		if n == 0 {
			t.Fatalf("base %d rejects %s", act.Obj, act.Op)
		}
		states[act.Obj] = out.Next
		resp = out.Resp
	}
	t.Fatal("propose did not complete")
	return 0
}

func initStates(impl machine.Impl) []spec.State {
	bases := impl.Bases()
	states := make([]spec.State, len(bases))
	for i, b := range bases {
		states[i] = b.Obj.Init
	}
	return states
}

func TestSoloProposeDecidesOwnValue(t *testing.T) {
	impl := Impl{}
	states := initStates(impl)
	p := impl.NewProcess(0, 3)
	if got := soloDrive(t, impl, p, states, spec.MakeOp1(spec.MethodPropose, 42)); got != 42 {
		t.Fatalf("solo propose returned %d, want 42", got)
	}
	// Re-proposing returns the same value and writes nothing new.
	if got := soloDrive(t, impl, p, states, spec.MakeOp1(spec.MethodPropose, 9)); got != 42 {
		t.Fatalf("second propose returned %d, want 42", got)
	}
	if states[0] != spec.IntState(42) {
		t.Fatalf("register overwritten: %v", states[0])
	}
}

func TestLeftmostWins(t *testing.T) {
	impl := Impl{}
	states := initStates(impl)
	// p2 proposes after p0 and p1 already announced.
	states[0] = spec.IntState(10)
	states[1] = spec.IntState(20)
	p := impl.NewProcess(2, 3)
	if got := soloDrive(t, impl, p, states, spec.MakeOp1(spec.MethodPropose, 30)); got != 10 {
		t.Fatalf("propose returned %d, want leftmost 10", got)
	}
}

func TestSecondProposeSkipsWrite(t *testing.T) {
	impl := Impl{}
	p := impl.NewProcess(0, 2)
	p.Begin(spec.MakeOp1(spec.MethodPropose, 5))
	act := p.Step(0)
	if act.Op.Method != spec.MethodRead || act.Obj != 0 {
		t.Fatalf("first action = %v", act)
	}
	// Own register already holds a value: straight to the scan.
	act = p.Step(5)
	if act.Op.Method != spec.MethodRead || act.Obj != 0 {
		t.Fatalf("after own-read action = %v, want scan from register 0", act)
	}
}

func TestCloneIndependence(t *testing.T) {
	impl := Impl{}
	p := impl.NewProcess(0, 2)
	p.Begin(spec.MakeOp1(spec.MethodPropose, 5))
	p.Step(0)
	q := p.CloneInto(nil)
	actP := p.Step(spec.NoValue) // own cell empty: write
	actQ := q.Step(7)            // own cell occupied: scan
	if actP.Op.Method != spec.MethodWrite {
		t.Fatalf("original action = %v", actP)
	}
	if actQ.Op.Method != spec.MethodRead {
		t.Fatalf("clone action = %v", actQ)
	}
}

func TestImplMetadata(t *testing.T) {
	impl := Impl{}
	if err := machine.Validate(impl, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := impl.Spec().Type.(spec.Consensus); !ok {
		t.Fatalf("spec type = %s", impl.Spec().Type.Name())
	}
	for _, b := range impl.Bases() {
		if !b.Eventually {
			t.Error("default bases must be eventually linearizable")
		}
		if b.Obj.Init != spec.IntState(spec.NoValue) {
			t.Errorf("base init = %v, want ⊥", b.Obj.Init)
		}
	}
	for _, b := range (Impl{AtomicBases: true}).Bases() {
		if b.Eventually {
			t.Error("AtomicBases not honored")
		}
	}
}
