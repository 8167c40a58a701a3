package machine

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestActionConstructorsAndString(t *testing.T) {
	inv := Invoke(2, spec.MakeOp1(spec.MethodWrite, 7))
	if inv.Kind != ActInvoke || inv.Obj != 2 || inv.Op.Args[0] != 7 {
		t.Fatalf("invoke = %+v", inv)
	}
	if !strings.Contains(inv.String(), "obj2.write(7)") {
		t.Errorf("invoke string = %q", inv.String())
	}
	ret := Return(9)
	if ret.Kind != ActReturn || ret.Ret != 9 {
		t.Fatalf("return = %+v", ret)
	}
	if ret.String() != "return 9" {
		t.Errorf("return string = %q", ret.String())
	}
}

// stubImpl is a configurable implementation for Validate tests.
type stubImpl struct {
	name  string
	bases []Base
	proc  func(p, n int) Process
}

func (s stubImpl) Name() string      { return s.name }
func (s stubImpl) Spec() spec.Object { return spec.NewObject(spec.Register{}) }
func (s stubImpl) Bases() []Base     { return s.bases }
func (s stubImpl) NewProcess(p, n int) Process {
	if s.proc != nil {
		return s.proc(p, n)
	}
	return nopProc{}
}

type nopProc struct{}

func (nopProc) Begin(spec.Op)             {}
func (nopProc) Step(int64) Action         { return Return(0) }
func (nopProc) CloneInto(Process) Process { return nopProc{} }

func TestValidate(t *testing.T) {
	good := stubImpl{
		name: "good",
		bases: []Base{
			{Name: "A", Obj: spec.NewObject(spec.Register{})},
			{Name: "B", Obj: spec.NewObject(spec.CAS{})},
		},
	}
	if err := Validate(good, 3); err != nil {
		t.Fatalf("good impl rejected: %v", err)
	}

	cases := []struct {
		name string
		impl Impl
	}{
		{"empty name", stubImpl{name: ""}},
		{"empty base name", stubImpl{name: "x", bases: []Base{{Name: "", Obj: spec.NewObject(spec.Register{})}}}},
		{"dup base name", stubImpl{name: "x", bases: []Base{
			{Name: "A", Obj: spec.NewObject(spec.Register{})},
			{Name: "A", Obj: spec.NewObject(spec.Register{})},
		}}},
		{"nil base type", stubImpl{name: "x", bases: []Base{{Name: "A"}}}},
		{"nil process", stubImpl{name: "x", proc: func(p, n int) Process { return nil }}},
	}
	for _, tc := range cases {
		if err := Validate(tc.impl, 2); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}
