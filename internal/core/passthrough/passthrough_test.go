package passthrough

import (
	"testing"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

func TestPassthroughDelegates(t *testing.T) {
	impl := New("reg", spec.NewObject(spec.Register{}), false)
	if err := machine.Validate(impl, 2); err != nil {
		t.Fatal(err)
	}
	p := impl.NewProcess(0, 1)
	p.Begin(spec.MakeOp1(spec.MethodWrite, 5))
	act := p.Step(0)
	if act.Kind != machine.ActInvoke || act.Obj != 0 || act.Op.Args[0] != 5 {
		t.Fatalf("delegated action = %v", act)
	}
	act = p.Step(0)
	if act.Kind != machine.ActReturn || act.Ret != 0 {
		t.Fatalf("return = %v", act)
	}
}

func TestPassthroughEventualFlag(t *testing.T) {
	impl := New("reg", spec.NewObject(spec.Register{}), true)
	if !impl.Bases()[0].Eventually {
		t.Fatal("eventual flag dropped")
	}
	if impl.Name() != "reg" || impl.Spec().Type.Name() != "register" {
		t.Fatalf("metadata: %s %s", impl.Name(), impl.Spec().Type.Name())
	}
}

func TestPassthroughClone(t *testing.T) {
	impl := New("reg", spec.NewObject(spec.Register{}), false)
	p := impl.NewProcess(0, 1)
	p.Begin(spec.MakeOp(spec.MethodRead))
	q := p.CloneInto(nil)
	actP := p.Step(0)
	if actP.Kind != machine.ActInvoke {
		t.Fatal("original did not invoke")
	}
	actQ := q.Step(0)
	if actQ.Kind != machine.ActInvoke {
		t.Fatal("clone lost pending op")
	}
}
