package spec

import (
	"fmt"
	"slices"
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
	outs := Outcomes(r, s, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 7 || outs[0].Next != IntState(7) {
		t.Fatalf("read in init state: %+v", outs)
	}
	outs = Outcomes(r, s, MakeOp1(MethodWrite, 42))
	if len(outs) != 1 || outs[0].Resp != 0 || outs[0].Next != IntState(42) {
		t.Fatalf("write(42): %+v", outs)
	}
	outs = Outcomes(r, outs[0].Next, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 42 {
		t.Fatalf("read after write(42): %+v", outs)
	}
	if got := Outcomes(r, s, MakeOp(MethodFetchInc)); got != nil {
		t.Errorf("register accepted fetchinc: %+v", got)
	}
	if got := Outcomes(r, StringState("bogus"), MakeOp(MethodRead)); got != nil {
		t.Errorf("register accepted bogus state: %+v", got)
	}
	if got := Outcomes(r, s, MakeOp1(MethodRead, 1)); got != nil {
		t.Errorf("register accepted read with argument: %+v", got)
	}
}

func TestFetchInc(t *testing.T) {
	f := FetchInc{}
	s := f.Init()
	for want := int64(0); want < 5; want++ {
		outs := Outcomes(f, s, MakeOp(MethodFetchInc))
		if len(outs) != 1 {
			t.Fatalf("fetchinc outcome count = %d", len(outs))
		}
		if outs[0].Resp != want {
			t.Fatalf("fetchinc #%d returned %d", want, outs[0].Resp)
		}
		s = outs[0].Next
	}
	if got := Outcomes(f, s, MakeOp(MethodRead)); got != nil {
		t.Errorf("fetchinc accepted read: %+v", got)
	}
}

func TestConsensus(t *testing.T) {
	c := Consensus{}
	s := c.Init()
	outs := Outcomes(c, s, MakeOp1(MethodPropose, 3))
	if len(outs) != 1 || outs[0].Resp != 3 {
		t.Fatalf("first propose(3): %+v", outs)
	}
	s = outs[0].Next
	outs = Outcomes(c, s, MakeOp1(MethodPropose, 9))
	if len(outs) != 1 || outs[0].Resp != 3 {
		t.Fatalf("second propose(9) should return 3: %+v", outs)
	}
	if got := Outcomes(c, s, MakeOp1(MethodPropose, -2)); got != nil {
		t.Errorf("consensus accepted negative proposal: %+v", got)
	}
}

func TestTestSet(t *testing.T) {
	ts := TestSet{}
	s := ts.Init()
	outs := Outcomes(ts, s, MakeOp(MethodTestSet))
	if len(outs) != 1 || outs[0].Resp != 0 {
		t.Fatalf("first testset: %+v", outs)
	}
	s = outs[0].Next
	for i := 0; i < 3; i++ {
		outs = Outcomes(ts, s, MakeOp(MethodTestSet))
		if len(outs) != 1 || outs[0].Resp != 1 {
			t.Fatalf("testset #%d: %+v", i+2, outs)
		}
		s = outs[0].Next
	}
}

func TestCAS(t *testing.T) {
	c := CAS{}
	s := c.Init()
	outs := Outcomes(c, s, MakeOp2(MethodCAS, 0, 5))
	if len(outs) != 1 || outs[0].Resp != 1 || outs[0].Next != IntState(5) {
		t.Fatalf("cas(0,5) from 0: %+v", outs)
	}
	s = outs[0].Next
	outs = Outcomes(c, s, MakeOp2(MethodCAS, 0, 9))
	if len(outs) != 1 || outs[0].Resp != 0 || outs[0].Next != IntState(5) {
		t.Fatalf("failed cas(0,9) from 5: %+v", outs)
	}
	outs = Outcomes(c, s, MakeOp(MethodRead))
	if len(outs) != 1 || outs[0].Resp != 5 {
		t.Fatalf("read from 5: %+v", outs)
	}
}

func TestMaxRegister(t *testing.T) {
	m := MaxRegister{}
	s := m.Init()
	s = Outcomes(m, s, MakeOp1(MethodWriteMax, 4))[0].Next
	s = Outcomes(m, s, MakeOp1(MethodWriteMax, 2))[0].Next
	outs := Outcomes(m, s, MakeOp(MethodRead))
	if outs[0].Resp != 4 {
		t.Fatalf("read after writemax(4),writemax(2) = %d, want 4", outs[0].Resp)
	}
}

func TestQueue(t *testing.T) {
	q := Queue{}
	s := q.Init()
	outs := Outcomes(q, s, MakeOp(MethodDeq))
	if outs[0].Resp != EmptyDeq {
		t.Fatalf("deq on empty = %d", outs[0].Resp)
	}
	s = Outcomes(q, s, MakeOp1(MethodEnq, 10))[0].Next
	s = Outcomes(q, s, MakeOp1(MethodEnq, 20))[0].Next
	outs = Outcomes(q, s, MakeOp(MethodDeq))
	if outs[0].Resp != 10 {
		t.Fatalf("first deq = %d, want 10", outs[0].Resp)
	}
	s = outs[0].Next
	outs = Outcomes(q, s, MakeOp(MethodDeq))
	if outs[0].Resp != 20 {
		t.Fatalf("second deq = %d, want 20", outs[0].Resp)
	}
	if outs[0].Next != StringState("") {
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
			s = Outcomes(q, s, MakeOp1(MethodEnq, v))[0].Next
		}
		for _, want := range vals {
			outs := Outcomes(q, s, MakeOp(MethodDeq))
			if len(outs) != 1 || outs[0].Resp != want {
				return false
			}
			s = outs[0].Next
		}
		return Outcomes(q, s, MakeOp(MethodDeq))[0].Resp == EmptyDeq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisterArray(t *testing.T) {
	ra := RegisterArray{InitVal: NoValue}
	s := ra.Init()
	outs := Outcomes(ra, s, MakeOp1(MethodRead, 3))
	if outs[0].Resp != NoValue {
		t.Fatalf("read(3) on fresh array = %d, want %d", outs[0].Resp, NoValue)
	}
	s = Outcomes(ra, s, MakeOp2(MethodWrite, 3, 77))[0].Next
	s = Outcomes(ra, s, MakeOp2(MethodWrite, 1, 11))[0].Next
	if got := Outcomes(ra, s, MakeOp1(MethodRead, 3))[0].Resp; got != 77 {
		t.Fatalf("read(3) = %d, want 77", got)
	}
	if got := Outcomes(ra, s, MakeOp1(MethodRead, 1))[0].Resp; got != 11 {
		t.Fatalf("read(1) = %d, want 11", got)
	}
	if got := Outcomes(ra, s, MakeOp1(MethodRead, 0))[0].Resp; got != NoValue {
		t.Fatalf("read(0) = %d, want %d", got, NoValue)
	}
	if got := Outcomes(ra, s, MakeOp1(MethodRead, -1)); got != nil {
		t.Errorf("read(-1) accepted: %+v", got)
	}
}

func TestRegisterArrayStateCanonical(t *testing.T) {
	// Writing cells in different orders must produce the same encoded state;
	// checker memoization depends on canonical state encodings.
	ra := RegisterArray{InitVal: NoValue}
	s1 := ra.Init()
	s1 = Outcomes(ra, s1, MakeOp2(MethodWrite, 2, 5))[0].Next
	s1 = Outcomes(ra, s1, MakeOp2(MethodWrite, 0, 9))[0].Next
	s2 := ra.Init()
	s2 = Outcomes(ra, s2, MakeOp2(MethodWrite, 0, 9))[0].Next
	s2 = Outcomes(ra, s2, MakeOp2(MethodWrite, 2, 5))[0].Next
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

// TestStepContract pins Type.Step's contract on every type here, over the
// states a few steps reach and their operations: n is the same at every
// i < n, a deterministic type has n ≤ 1, and Outcomes lists Step's outcomes
// in index order — for a TableType, its Delta entry.
func TestStepContract(t *testing.T) {
	flip := MakeOp("flip")
	coin := &TableType{
		TypeName: "coin",
		NStates:  2,
		Ops:      []Op{flip},
		Delta: map[TableKey][]Outcome{
			{State: 0, Op: flip}: {{Resp: 0, Next: IntState(0)}, {Resp: 1, Next: IntState(1)}},
			{State: 1, Op: flip}: {{Resp: 1, Next: IntState(1)}, {Resp: 0, Next: IntState(0)}},
		},
	}
	arrayOps := []Op{MakeOp1(MethodRead, 0), MakeOp1(MethodRead, 2), MakeOp2(MethodWrite, 0, 1), MakeOp2(MethodWrite, 2, 3)}
	types := []Type{Register{}, FetchInc{}, Consensus{}, TestSet{}, CAS{}, MaxRegister{}, Queue{}, RegisterArray{}, ConstantType(7), coin}
	for _, typ := range types {
		ops := arrayOps
		if enum, ok := typ.(OpEnumerator); ok {
			ops = enum.EnumOps()
		}
		ops = append(ops, MakeOp("none")) // applicable nowhere
		// Breadth first, at most 64 states: fetch&inc's and the queue's
		// are unbounded.
		states, seen := []State{typ.Init()}, map[State]bool{typ.Init(): true}
		for i := 0; i < len(states) && len(states) < 64; i++ {
			for _, op := range ops {
				for _, o := range Outcomes(typ, states[i], op) {
					if !seen[o.Next] {
						seen[o.Next] = true
						states = append(states, o.Next)
					}
				}
			}
		}
		for _, s := range states {
			for _, op := range ops {
				_, n := typ.Step(s, op, 0)
				if typ.Deterministic() && n > 1 {
					t.Errorf("%s: deterministic, but %s in %v has %d outcomes", typ.Name(), op, s, n)
				}
				outs := Outcomes(typ, s, op)
				if len(outs) != n || (outs == nil) != (n == 0) {
					t.Errorf("%s: %s in %v: Outcomes = %v, Step's n = %d", typ.Name(), op, s, outs, n)
					continue
				}
				for i := range n {
					if out, m := typ.Step(s, op, i); m != n || out != outs[i] {
						t.Errorf("%s: %s in %v: Step(%d) = %v, %d; want %v, %d", typ.Name(), op, s, i, out, m, outs[i], n)
					}
				}
				if tt, ok := typ.(*TableType); ok {
					if want := tt.Delta[TableKey{State: s.n, Op: op}]; !slices.Equal(outs, want) {
						t.Errorf("%s: %s in %v: Outcomes = %v, Delta %v", typ.Name(), op, s, outs, want)
					}
				}
			}
		}
	}
	if coin.Deterministic() {
		t.Error("coin type should be nondeterministic")
	}
}

func TestTableType(t *testing.T) {
	ct := ConstantType(42)
	if !ct.Deterministic() {
		t.Error("constant type should be deterministic")
	}
	outs := Outcomes(ct, ct.Init(), MakeOp("get"))
	if len(outs) != 1 || outs[0].Resp != 42 {
		t.Fatalf("constant get: %+v", outs)
	}
	if got := Outcomes(ct, ct.Init(), MakeOp("other")); len(got) != 0 {
		t.Errorf("constant accepted unknown op: %+v", got)
	}
	if got := Outcomes(ct, IntState(5), MakeOp("get")); len(got) != 0 {
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
				{Resp: 0, Next: IntState(0)},
				{Resp: 1, Next: IntState(0)},
			},
		},
	}
	if nd.Deterministic() {
		t.Error("coin type should be nondeterministic")
	}
	if got := len(Outcomes(nd, nd.Init(), flip)); got != 2 {
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
			a := Outcomes(r, s, MakeOp1(MethodWrite, w))
			b := Outcomes(r, s, MakeOp1(MethodWrite, w))
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
			outs := Outcomes(t, s, op)
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
