package counter

import (
	"testing"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

var fetchinc = spec.MakeOp(spec.MethodFetchInc)

// drive runs a process solo against in-memory base objects built from the
// implementation's base descriptors, returning the op's response.
func drive(t *testing.T, impl machine.Impl, proc machine.Process, states []spec.State, op spec.Op) int64 {
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
			t.Fatalf("base %d rejects %s in state %v", act.Obj, act.Op, states[act.Obj])
		}
		states[act.Obj] = out.Next
		resp = out.Resp
	}
	t.Fatal("operation did not complete in 1000 steps")
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

func TestCASCounterSolo(t *testing.T) {
	impl := CAS{}
	if err := machine.Validate(impl, 2); err != nil {
		t.Fatal(err)
	}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	for want := int64(0); want < 5; want++ {
		if got := drive(t, impl, p, states, fetchinc); got != want {
			t.Fatalf("op returned %d, want %d", got, want)
		}
	}
}

func TestCASCounterNonzeroInit(t *testing.T) {
	impl := CAS{InitVal: 10}
	if impl.Spec().Init != int64(10) {
		t.Fatalf("spec init = %v", impl.Spec().Init)
	}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	if got := drive(t, impl, p, states, fetchinc); got != 10 {
		t.Fatalf("first op returned %d, want 10", got)
	}
}

func TestCASCounterRetriesAfterInterference(t *testing.T) {
	impl := CAS{}
	states := initStates(impl)
	p := impl.NewProcess(0, 2)
	p.Begin(fetchinc)
	// p reads 0.
	act := p.Step(0)
	if act.Kind != machine.ActInvoke || act.Op.Method != spec.MethodRead {
		t.Fatalf("first action = %v", act)
	}
	// Interference: another process increments behind p's back.
	states[0] = int64(1)
	// p's CAS(0,1) fails; p must re-read and retry with CAS(1,2).
	act = p.Step(0) // response to read: it saw 0
	if act.Op.Method != spec.MethodCAS || act.Op.Args[0] != 0 {
		t.Fatalf("cas action = %v", act)
	}
	act = p.Step(0) // CAS failed
	if act.Op.Method != spec.MethodRead {
		t.Fatalf("after failed CAS: %v, want re-read", act)
	}
	act = p.Step(1) // read 1
	if act.Op.Method != spec.MethodCAS || act.Op.Args[0] != 1 || act.Op.Args[1] != 2 {
		t.Fatalf("retry cas = %v", act)
	}
	act = p.Step(1) // CAS succeeded
	if act.Kind != machine.ActReturn || act.Ret != 1 {
		t.Fatalf("return = %v, want 1", act)
	}
}

func TestSloppyCounterSolo(t *testing.T) {
	impl := Sloppy{}
	if err := machine.Validate(impl, 3); err != nil {
		t.Fatal(err)
	}
	states := initStates(impl)
	p := impl.NewProcess(0, 3)
	for want := int64(0); want < 4; want++ {
		if got := drive(t, impl, p, states, fetchinc); got != want {
			t.Fatalf("solo sloppy op returned %d, want %d", got, want)
		}
	}
}

func TestSloppyCounterSeesOthersAnnouncements(t *testing.T) {
	impl := Sloppy{}
	states := initStates(impl)
	// Simulate p1 having announced 3 increments.
	states[1] = int64(3)
	p := impl.NewProcess(0, 2)
	if got := drive(t, impl, p, states, fetchinc); got != 3 {
		t.Fatalf("op returned %d, want 3 (own 1 + others 3 - 1)", got)
	}
}

func TestSloppyCounterSingleProcessNoReads(t *testing.T) {
	impl := Sloppy{}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	p.Begin(fetchinc)
	act := p.Step(0)
	if act.Op.Method != spec.MethodWrite {
		t.Fatalf("first action = %v", act)
	}
	act = p.Step(0)
	if act.Kind != machine.ActReturn || act.Ret != 0 {
		t.Fatalf("single-process return = %v", act)
	}
	_ = states
}

func TestWarmupCounterTransitions(t *testing.T) {
	impl := Warmup{Threshold: 2}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	// Solo: ops 1 and 2 are in warmup but the private count happens to
	// coincide with the truth, so solo responses are exact throughout.
	for want := int64(0); want < 4; want++ {
		if got := drive(t, impl, p, states, fetchinc); got != want {
			t.Fatalf("solo warmup op returned %d, want %d", got, want)
		}
	}
}

func TestWarmupCounterStaleUnderInterference(t *testing.T) {
	impl := Warmup{Threshold: 5}
	states := initStates(impl)
	// Another process already did 3 increments (still under threshold).
	states[0] = int64(3)
	p := impl.NewProcess(0, 2)
	// p's first op: CAS 3->4 succeeds, but 3 < threshold, so p answers its
	// private count 0 — stale but weakly consistent.
	if got := drive(t, impl, p, states, fetchinc); got != 0 {
		t.Fatalf("warmup op returned %d, want stale 0", got)
	}
	// Push the count past the threshold; p now answers truthfully.
	states[0] = int64(7)
	if got := drive(t, impl, p, states, fetchinc); got != 7 {
		t.Fatalf("post-warmup op returned %d, want 7", got)
	}
}

func TestJunkCounterOvershoots(t *testing.T) {
	impl := Junk{}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	got := []int64{}
	for i := 0; i < 4; i++ {
		got = append(got, drive(t, impl, p, states, fetchinc))
	}
	// v=0 honest, v=1 overshoots by 100, v=2 honest, v=3 honest (3%3==0).
	want := []int64{0, 101, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("junk responses = %v, want %v", got, want)
		}
	}
}

func TestJunkCounterCustomOffset(t *testing.T) {
	impl := Junk{JunkOffset: 7}
	states := initStates(impl)
	p := impl.NewProcess(0, 1)
	drive(t, impl, p, states, fetchinc)
	if got := drive(t, impl, p, states, fetchinc); got != 8 {
		t.Fatalf("junk op returned %d, want 8 (1+7)", got)
	}
}

func TestCloneMidOperation(t *testing.T) {
	impl := CAS{}
	p := impl.NewProcess(0, 1)
	p.Begin(fetchinc)
	p.Step(0) // read issued
	q := p.CloneInto(nil)
	// Feed different read responses to original and clone: they must
	// diverge independently.
	actP := p.Step(5)
	actQ := q.Step(9)
	if actP.Op.Args[0] != 5 || actQ.Op.Args[0] != 9 {
		t.Fatalf("clone shares state: %v vs %v", actP, actQ)
	}
}

func TestImplMetadata(t *testing.T) {
	impls := []machine.Impl{CAS{}, Sloppy{}, Warmup{Threshold: 1}, Junk{}}
	for _, im := range impls {
		if im.Name() == "" {
			t.Error("empty name")
		}
		if _, ok := im.Spec().Type.(spec.FetchInc); !ok {
			t.Errorf("%s spec is %s, want fetchinc", im.Name(), im.Spec().Type.Name())
		}
		if err := machine.Validate(im, 2); err != nil {
			t.Errorf("%s: %v", im.Name(), err)
		}
	}
	// Sloppy's bases must all be eventually linearizable when requested.
	for _, b := range (Sloppy{EventualBases: true}).Bases() {
		if !b.Eventually {
			t.Error("EventualBases not honored")
		}
	}
}
