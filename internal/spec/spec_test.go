package spec

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{MakeOp("read"), "read"},
		{MakeOp1("write", 5), "write(5)"},
		{MakeOp1("write", -3), "write(-3)"},
		{MakeOp2("cas", 1, 2), "cas(1,2)"},
		{MakeOp("fetchinc"), "fetchinc"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op%+v.String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestParseOp(t *testing.T) {
	tests := []struct {
		in      string
		want    Op
		wantErr bool
	}{
		{in: "read", want: MakeOp("read")},
		{in: "write(5)", want: MakeOp1("write", 5)},
		{in: "write(-3)", want: MakeOp1("write", -3)},
		{in: "cas(1,2)", want: MakeOp2("cas", 1, 2)},
		{in: "cas(1, 2)", want: MakeOp2("cas", 1, 2)},
		{in: "noargs()", want: MakeOp("noargs")},
		{in: "", wantErr: true},
		{in: "bad(", wantErr: true},
		{in: "(5)", wantErr: true},
		{in: "f(1,2,3)", wantErr: true},
		{in: "f(x)", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseOp(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseOp(%q) = %v, want error", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseOp(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseOp(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	f := func(method uint8, a, b int64, nargs uint8) bool {
		methods := []string{"read", "write", "cas", "fetchinc", "propose"}
		m := methods[int(method)%len(methods)]
		var op Op
		switch nargs % 3 {
		case 0:
			op = MakeOp(m)
		case 1:
			op = MakeOp1(m, a)
		case 2:
			op = MakeOp2(m, a, b)
		}
		parsed, err := ParseOp(op.String())
		return err == nil && parsed == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegister(t *testing.T) {
	r := Register{InitVal: 7}
	s := r.Init()
	outs := r.Step(s, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 7 || outs[0].Next != int64(7) {
		t.Fatalf("read in init state: %+v", outs)
	}
	outs = r.Step(s, MakeOp1(MethodWrite, 42))
	if len(outs) != 1 || outs[0].Resp != 0 || outs[0].Next != int64(42) {
		t.Fatalf("write(42): %+v", outs)
	}
	outs = r.Step(outs[0].Next, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 42 {
		t.Fatalf("read after write(42): %+v", outs)
	}
	if got := r.Step(s, MakeOp(MethodFetchInc)); got != nil {
		t.Errorf("register accepted fetchinc: %+v", got)
	}
	if got := r.Step("bogus", MakeOp(MethodRead)); got != nil {
		t.Errorf("register accepted bogus state: %+v", got)
	}
	if got := r.Step(s, MakeOp1(MethodRead, 1)); got != nil {
		t.Errorf("register accepted read with argument: %+v", got)
	}
}

func TestFetchInc(t *testing.T) {
	f := FetchInc{}
	s := f.Init()
	for want := int64(0); want < 5; want++ {
		outs := f.Step(s, MakeOp(MethodFetchInc))
		if len(outs) != 1 {
			t.Fatalf("fetchinc outcome count = %d", len(outs))
		}
		if outs[0].Resp != want {
			t.Fatalf("fetchinc #%d returned %d", want, outs[0].Resp)
		}
		s = outs[0].Next
	}
	if got := f.Step(s, MakeOp(MethodRead)); got != nil {
		t.Errorf("fetchinc accepted read: %+v", got)
	}
}

func TestConsensus(t *testing.T) {
	c := Consensus{}
	s := c.Init()
	outs := c.Step(s, MakeOp1(MethodPropose, 3))
	if len(outs) != 1 || outs[0].Resp != 3 {
		t.Fatalf("first propose(3): %+v", outs)
	}
	s = outs[0].Next
	outs = c.Step(s, MakeOp1(MethodPropose, 9))
	if len(outs) != 1 || outs[0].Resp != 3 {
		t.Fatalf("second propose(9) should return 3: %+v", outs)
	}
	if got := c.Step(s, MakeOp1(MethodPropose, -2)); got != nil {
		t.Errorf("consensus accepted negative proposal: %+v", got)
	}
}

func TestTestSet(t *testing.T) {
	ts := TestSet{}
	s := ts.Init()
	outs := ts.Step(s, MakeOp(MethodTestSet))
	if len(outs) != 1 || outs[0].Resp != 0 {
		t.Fatalf("first testset: %+v", outs)
	}
	s = outs[0].Next
	for i := 0; i < 3; i++ {
		outs = ts.Step(s, MakeOp(MethodTestSet))
		if len(outs) != 1 || outs[0].Resp != 1 {
			t.Fatalf("testset #%d: %+v", i+2, outs)
		}
		s = outs[0].Next
	}
}

func TestCAS(t *testing.T) {
	c := CAS{}
	s := c.Init()
	outs := c.Step(s, MakeOp2(MethodCAS, 0, 5))
	if len(outs) != 1 || outs[0].Resp != 1 || outs[0].Next != int64(5) {
		t.Fatalf("cas(0,5) from 0: %+v", outs)
	}
	s = outs[0].Next
	outs = c.Step(s, MakeOp2(MethodCAS, 0, 9))
	if len(outs) != 1 || outs[0].Resp != 0 || outs[0].Next != int64(5) {
		t.Fatalf("failed cas(0,9) from 5: %+v", outs)
	}
	outs = c.Step(s, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 5 {
		t.Fatalf("read from 5: %+v", outs)
	}
}

func TestMaxRegister(t *testing.T) {
	m := MaxRegister{}
	s := m.Init()
	s = m.Step(s, MakeOp1(MethodWriteMax, 4))[0].Next
	s = m.Step(s, MakeOp1(MethodWriteMax, 2))[0].Next
	outs := m.Step(s, MakeOp(MethodRead))
	if outs[0].Resp != 4 {
		t.Fatalf("read after writemax(4),writemax(2) = %d, want 4", outs[0].Resp)
	}
}

func TestQueue(t *testing.T) {
	q := Queue{}
	s := q.Init()
	outs := q.Step(s, MakeOp(MethodDeq))
	if outs[0].Resp != EmptyDeq {
		t.Fatalf("deq on empty = %d", outs[0].Resp)
	}
	s = q.Step(s, MakeOp1(MethodEnq, 10))[0].Next
	s = q.Step(s, MakeOp1(MethodEnq, 20))[0].Next
	outs = q.Step(s, MakeOp(MethodDeq))
	if outs[0].Resp != 10 {
		t.Fatalf("first deq = %d, want 10", outs[0].Resp)
	}
	s = outs[0].Next
	outs = q.Step(s, MakeOp(MethodDeq))
	if outs[0].Resp != 20 {
		t.Fatalf("second deq = %d, want 20", outs[0].Resp)
	}
	if outs[0].Next != "" {
		t.Fatalf("queue not empty after draining: %v", outs[0].Next)
	}
}

func TestQueueFIFOProperty(t *testing.T) {
	q := Queue{}
	f := func(vals []int64) bool {
		if len(vals) > 12 {
			vals = vals[:12]
		}
		s := q.Init()
		for _, v := range vals {
			s = q.Step(s, MakeOp1(MethodEnq, v))[0].Next
		}
		for _, want := range vals {
			outs := q.Step(s, MakeOp(MethodDeq))
			if len(outs) != 1 || outs[0].Resp != want {
				return false
			}
			s = outs[0].Next
		}
		return q.Step(s, MakeOp(MethodDeq))[0].Resp == EmptyDeq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisterArray(t *testing.T) {
	ra := RegisterArray{InitVal: NoValue}
	s := ra.Init()
	outs := ra.Step(s, MakeOp1(MethodRead, 3))
	if outs[0].Resp != NoValue {
		t.Fatalf("read(3) on fresh array = %d, want %d", outs[0].Resp, NoValue)
	}
	s = ra.Step(s, MakeOp2(MethodWrite, 3, 77))[0].Next
	s = ra.Step(s, MakeOp2(MethodWrite, 1, 11))[0].Next
	if got := ra.Step(s, MakeOp1(MethodRead, 3))[0].Resp; got != 77 {
		t.Fatalf("read(3) = %d, want 77", got)
	}
	if got := ra.Step(s, MakeOp1(MethodRead, 1))[0].Resp; got != 11 {
		t.Fatalf("read(1) = %d, want 11", got)
	}
	if got := ra.Step(s, MakeOp1(MethodRead, 0))[0].Resp; got != NoValue {
		t.Fatalf("read(0) = %d, want %d", got, NoValue)
	}
	if got := ra.Step(s, MakeOp1(MethodRead, -1)); got != nil {
		t.Errorf("read(-1) accepted: %+v", got)
	}
}

func TestRegisterArrayStateCanonical(t *testing.T) {
	// Writing cells in different orders must produce the same encoded state;
	// checker memoization depends on canonical state encodings.
	ra := RegisterArray{InitVal: NoValue}
	s1 := ra.Init()
	s1 = ra.Step(s1, MakeOp2(MethodWrite, 2, 5))[0].Next
	s1 = ra.Step(s1, MakeOp2(MethodWrite, 0, 9))[0].Next
	s2 := ra.Init()
	s2 = ra.Step(s2, MakeOp2(MethodWrite, 0, 9))[0].Next
	s2 = ra.Step(s2, MakeOp2(MethodWrite, 2, 5))[0].Next
	if s1 != s2 {
		t.Fatalf("non-canonical states: %v vs %v", s1, s2)
	}
}

func TestTotality(t *testing.T) {
	types := []Type{
		Register{}, FetchInc{}, Consensus{}, TestSet{}, CAS{}, MaxRegister{},
	}
	for _, typ := range types {
		total, err := isTotal(typ, 1000)
		if err != nil {
			// Unbounded-state types exhaust the bound; that is acceptable
			// for fetchinc/maxregister whose state grows.
			if typ.Name() == "fetchinc" || typ.Name() == "maxregister" {
				continue
			}
			t.Errorf("isTotal(%s): %v", typ.Name(), err)
			continue
		}
		if !total {
			t.Errorf("isTotal(%s) = false, want true", typ.Name())
		}
	}
}

func TestReachable(t *testing.T) {
	states, err := Reachable(TestSet{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("testset reachable states = %d, want 2", len(states))
	}
	states, err = Reachable(Consensus{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 { // undecided, decided-0, decided-1
		t.Fatalf("consensus reachable states = %d, want 3", len(states))
	}
}

func TestDeterministicFlags(t *testing.T) {
	det := []Type{Register{}, FetchInc{}, Consensus{}, TestSet{}, CAS{}, MaxRegister{}, Queue{}, RegisterArray{}}
	for _, typ := range det {
		if !typ.Deterministic() {
			t.Errorf("%s.Deterministic() = false, want true", typ.Name())
		}
	}
}

func TestTableType(t *testing.T) {
	ct := ConstantType(42)
	if !ct.Deterministic() {
		t.Error("constant type should be deterministic")
	}
	outs := ct.Step(ct.Init(), MakeOp("get"))
	if len(outs) != 1 || outs[0].Resp != 42 {
		t.Fatalf("constant get: %+v", outs)
	}
	if got := ct.Step(ct.Init(), MakeOp("other")); len(got) != 0 {
		t.Errorf("constant accepted unknown op: %+v", got)
	}
	if got := ct.Step(int64(5), MakeOp("get")); len(got) != 0 {
		t.Errorf("constant accepted out-of-range state: %+v", got)
	}
	total, err := isTotal(ct, 10)
	if err != nil || !total {
		t.Errorf("constant isTotal = %v, %v", total, err)
	}
}

func TestTableTypeNondeterministic(t *testing.T) {
	flip := MakeOp("flip")
	nd := &TableType{
		TypeName: "coin",
		NStates:  1,
		Ops:      []Op{flip},
		Delta: map[TableKey][]Outcome{
			{State: 0, Op: flip}: {
				{Resp: 0, Next: int64(0)},
				{Resp: 1, Next: int64(0)},
			},
		},
	}
	if nd.Deterministic() {
		t.Error("coin type should be nondeterministic")
	}
	if got := len(nd.Step(nd.Init(), flip)); got != 2 {
		t.Errorf("coin outcomes = %d, want 2", got)
	}
}

func TestDeterminismIsStable(t *testing.T) {
	// Step must be a pure function: identical inputs give identical outputs.
	f := func(writes []int64) bool {
		if len(writes) > 8 {
			writes = writes[:8]
		}
		r := Register{}
		s := r.Init()
		for _, w := range writes {
			a := r.Step(s, MakeOp1(MethodWrite, w))
			b := r.Step(s, MakeOp1(MethodWrite, w))
			if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
				return false
			}
			s = a[0].Next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// isTotal reports whether, in every state reachable from init within the
// given exploration bound, every enumerated operation has at least one
// outcome. The paper's examples are all total; totality guarantees that any
// finite history is t-linearizable for t = |H| (Section 3.2).
func isTotal(t Type, maxStates int) (bool, error) {
	enum, ok := t.(OpEnumerator)
	if !ok {
		return false, fmt.Errorf("type %s does not enumerate operations", t.Name())
	}
	ops := enum.EnumOps()
	seen := map[State]bool{t.Init(): true}
	frontier := []State{t.Init()}
	for len(frontier) > 0 {
		if len(seen) > maxStates {
			return false, fmt.Errorf("type %s: state bound %d exceeded", t.Name(), maxStates)
		}
		s := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, op := range ops {
			outs := t.Step(s, op)
			if len(outs) == 0 {
				return false, nil
			}
			for _, o := range outs {
				if !seen[o.Next] {
					seen[o.Next] = true
					frontier = append(frontier, o.Next)
				}
			}
		}
	}
	return true, nil
}
