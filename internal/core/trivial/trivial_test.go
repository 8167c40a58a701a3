package trivial

import (
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestConstantTypeTrivial(t *testing.T) {
	res, err := Decide(spec.ConstantType(42), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trivial {
		t.Fatalf("constant type not trivial: %+v", res)
	}
	if got := res.Responses[spec.MakeOp("get")]; got != 42 {
		t.Fatalf("r(q0, get) = %d, want 42", got)
	}
}

func TestClassicTypesNonTrivial(t *testing.T) {
	types := []spec.Type{
		spec.Register{},
		spec.TestSet{},
		spec.Consensus{},
		spec.CAS{},
	}
	for _, typ := range types {
		res, err := Decide(typ, 1000)
		if err != nil {
			t.Errorf("Decide(%s): %v", typ.Name(), err)
			continue
		}
		if res.Trivial {
			t.Errorf("%s decided trivial; Proposition 14 says these need communication", typ.Name())
			continue
		}
		if len(res.WitnessStates) != 2 {
			t.Errorf("%s: no witness states", typ.Name())
		}
	}
}

func TestFetchIncNonTrivialBounded(t *testing.T) {
	// fetch&inc has unbounded state; the witness appears within any bound
	// of at least two states.
	res, err := Decide(spec.FetchInc{}, 10)
	if err == nil && res.Trivial {
		t.Fatal("fetch&inc decided trivial")
	}
	// Either the bound was hit (err != nil) or non-triviality was found.
	if err == nil && res.WitnessOp.Method != spec.MethodFetchInc {
		t.Fatalf("witness op = %v", res.WitnessOp)
	}
}

func TestWriteOnlyRegisterTrivial(t *testing.T) {
	// A register supporting only writes (acks) is trivial: every op
	// returns 0 in every state.
	w0 := spec.MakeOp1(spec.MethodWrite, 0)
	w1 := spec.MakeOp1(spec.MethodWrite, 1)
	tt := &spec.TableType{
		TypeName: "write-only",
		NStates:  2,
		Ops:      []spec.Op{w0, w1},
		Delta: map[spec.TableKey][]spec.Outcome{
			{State: 0, Op: w0}: {{Resp: 0, Next: spec.IntState(0)}},
			{State: 0, Op: w1}: {{Resp: 0, Next: spec.IntState(1)}},
			{State: 1, Op: w0}: {{Resp: 0, Next: spec.IntState(0)}},
			{State: 1, Op: w1}: {{Resp: 0, Next: spec.IntState(1)}},
		},
	}
	res, err := Decide(tt, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trivial {
		t.Fatalf("write-only register should be trivial: %+v", res)
	}
}

func TestPartialTypeNonTrivial(t *testing.T) {
	// An operation inapplicable in some reachable state cannot have a
	// universally correct response.
	a := spec.MakeOp("a")
	tt := &spec.TableType{
		TypeName: "partial",
		NStates:  2,
		Ops:      []spec.Op{a},
		Delta: map[spec.TableKey][]spec.Outcome{
			{State: 0, Op: a}: {{Resp: 7, Next: spec.IntState(1)}},
			// state 1 has no transition for a.
		},
	}
	res, err := Decide(tt, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trivial {
		t.Fatal("partial type decided trivial")
	}
}

func TestDecideErrors(t *testing.T) {
	flip := spec.MakeOp("flip")
	nd := &spec.TableType{
		TypeName: "coin", NStates: 1, Ops: []spec.Op{flip},
		Delta: map[spec.TableKey][]spec.Outcome{
			{State: 0, Op: flip}: {{Resp: 0, Next: spec.IntState(0)}, {Resp: 1, Next: spec.IntState(0)}},
		},
	}
	if _, err := Decide(nd, 10); err == nil {
		t.Error("accepted a nondeterministic type")
	}
	if _, err := Decide(spec.RegisterArray{}, 10); err == nil {
		t.Error("accepted a type without EnumOps")
	}
	if _, err := Decide(spec.FetchInc{}, 2); err == nil {
		t.Error("expected state-bound error for fetch&inc with bound 2")
	}
}
