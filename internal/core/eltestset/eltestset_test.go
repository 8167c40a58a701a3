package eltestset

import (
	"testing"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

var testset = spec.MakeOp(spec.MethodTestSet)

func TestLocalFirstZeroThenOnes(t *testing.T) {
	impl := Local{}
	if err := machine.Validate(impl, 2); err != nil {
		t.Fatal(err)
	}
	if len(impl.Bases()) != 0 {
		t.Fatal("el-testset must use no shared objects")
	}
	p := impl.NewProcess(0, 2)
	p.Begin(testset)
	if act := p.Step(0); act.Kind != machine.ActReturn || act.Ret != 0 {
		t.Fatalf("first testset = %v, want return 0", act)
	}
	for i := 0; i < 3; i++ {
		p.Begin(testset)
		if act := p.Step(0); act.Kind != machine.ActReturn || act.Ret != 1 {
			t.Fatalf("testset #%d = %v, want return 1", i+2, act)
		}
	}
}

func TestLocalEachProcessGetsOneZero(t *testing.T) {
	impl := Local{}
	for pid := 0; pid < 3; pid++ {
		p := impl.NewProcess(pid, 3)
		p.Begin(testset)
		if act := p.Step(0); act.Ret != 0 {
			t.Fatalf("p%d first testset = %v", pid, act)
		}
	}
}

func TestLocalClone(t *testing.T) {
	impl := Local{}
	p := impl.NewProcess(0, 1)
	p.Begin(testset)
	p.Step(0)
	q := p.CloneInto(nil)
	q.Begin(testset)
	if act := q.Step(0); act.Ret != 1 {
		t.Fatalf("clone lost state: %v", act)
	}
}

func TestFromCASWinnerAndLosers(t *testing.T) {
	impl := FromCAS{}
	if err := machine.Validate(impl, 2); err != nil {
		t.Fatal(err)
	}
	state := impl.Bases()[0].Obj.Init
	typ := impl.Bases()[0].Obj.Type

	run := func(p machine.Process) int64 {
		p.Begin(testset)
		resp := int64(0)
		for {
			act := p.Step(resp)
			if act.Kind == machine.ActReturn {
				return act.Ret
			}
			out, _ := typ.Step(state, act.Op, 0)
			state = out.Next
			resp = out.Resp
		}
	}
	if got := run(impl.NewProcess(0, 2)); got != 0 {
		t.Fatalf("winner returned %d", got)
	}
	if got := run(impl.NewProcess(1, 2)); got != 1 {
		t.Fatalf("loser returned %d", got)
	}
}
