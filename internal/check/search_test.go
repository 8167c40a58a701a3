package check

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// bruteResponses is the slow oracle for a sequential question: the set of
// responses final can give after every operation in must and some subset of
// opt, in some order. It replays, with Step from obj's initial state, every
// permutation of must ∪ every subset of opt; meant for at most 6 operations.
func bruteResponses(obj spec.Object, must, opt []spec.Op, final spec.Op) map[int64]bool {
	found := make(map[int64]bool)
	for sub := 0; sub < 1<<len(opt); sub++ {
		ops := slices.Clone(must)
		for j, op := range opt {
			if sub>>j&1 == 1 {
				ops = append(ops, op)
			}
		}
		permute(ops, 0, func() {
			states := []spec.State{obj.Init}
			for _, op := range ops {
				var next []spec.State
				for _, s := range states {
					for _, out := range spec.Outcomes(obj.Type, s, op) {
						next = append(next, out.Next)
					}
				}
				states = next
			}
			for _, s := range states {
				for _, out := range spec.Outcomes(obj.Type, s, final) {
					found[out.Resp] = true
				}
			}
		})
	}
	return found
}

// permute calls visit once for every ordering of ops[k:], in place.
func permute(ops []spec.Op, k int, visit func()) {
	if k == len(ops) {
		visit()
		return
	}
	for i := k; i < len(ops); i++ {
		ops[k], ops[i] = ops[i], ops[k]
		permute(ops, k+1, visit)
		ops[k], ops[i] = ops[i], ops[k]
	}
}

// seqKind is one object type the sequential questions are drawn over, with
// the operations they are made of and the responses worth asking about.
type seqKind struct {
	name  string
	obj   spec.Object
	ops   []spec.Op
	resps []int64
}

var seqKinds = []seqKind{
	{"register", spec.NewObject(spec.Register{}), []spec.Op{wr(1), wr(2), wr(3), rd}, []int64{-1, 0, 1, 2, 3, 4}},
	{"queue", spec.NewObject(spec.Queue{}),
		[]spec.Op{spec.MakeOp1(spec.MethodEnq, 1), spec.MakeOp1(spec.MethodEnq, 2), spec.MakeOp(spec.MethodDeq)},
		[]int64{spec.EmptyDeq, 0, 1, 2, 3}},
	{"fetchinc", spec.NewObject(spec.FetchInc{}), []spec.Op{fi, fi, fi, rd}, []int64{-1, 0, 1, 2, 3, 4, 5, 6, 7}},
}

// seqCase is one sequential question: Figure 1's line-13 test without its
// response, which the checks range over.
type seqCase struct {
	kind      seqKind
	must, opt []spec.Op
	final     spec.Op
}

func (c seqCase) String() string {
	return fmt.Sprintf("%s must=%v opt=%v final=%v", c.kind.name, c.must, c.opt, c.final)
}

// decodeSeqCase reads a byte string as a sequential question of at most 6
// candidates: byte 0 picks the kind, byte 1 the final operation, and every
// further byte adds an operation (high bits) to must or opt (low bit).
func decodeSeqCase(data []byte) seqCase {
	for len(data) < 2 {
		data = append(data, 0)
	}
	k := seqKinds[int(data[0])%len(seqKinds)]
	c := seqCase{kind: k, final: k.ops[int(data[1])%len(k.ops)]}
	for _, b := range data[2:] {
		if len(c.must)+len(c.opt) == 6 {
			break
		}
		op := k.ops[int(b>>1)%len(k.ops)]
		if b&1 == 0 {
			c.must = append(c.must, op)
		} else {
			c.opt = append(c.opt, op)
		}
	}
	return c
}

// recordedResponses runs the enumeration input directly: the line-13 search
// over a recorder, which leaves the response set behind.
func recordedResponses(c seqCase, opts Options) (map[int64]bool, error) {
	rec := recorder{Type: c.kind.obj.Type, final: c.final, found: make(map[int64]bool)}
	_, err := SequentialWitness(spec.Object{Type: rec, Init: c.kind.obj.Init}, c.must, c.opt, recordOp, 0, opts)
	return rec.found, err
}

// checkSeqCase pins every way the one search answers c — the decision with
// and without memo, the fetch&inc rule where it applies, and the recorded
// response set — to the brute-force oracle. Without memo only the accepted
// responses are decided (the search stops at the first witness); the
// recorded set covers the exhaustive side.
func checkSeqCase(t *testing.T, c seqCase) {
	t.Helper()
	want := bruteResponses(c.kind.obj, c.must, c.opt, c.final)
	noMemo := Options{NoFastPath: true, NoMemo: true}
	for _, resp := range c.kind.resps {
		legs := []Options{{NoFastPath: true}}
		if c.kind.name == "fetchinc" {
			legs = append(legs, Options{})
		}
		if want[resp] {
			legs = append(legs, noMemo)
		}
		for _, opts := range legs {
			got, err := SequentialWitness(c.kind.obj, c.must, c.opt, c.final, resp, opts)
			if err != nil {
				t.Fatalf("%v resp %d %+v: %v", c, resp, opts, err)
			}
			if got != want[resp] {
				t.Fatalf("%v resp %d %+v: witness %v, brute force %v", c, resp, opts, got, want[resp])
			}
		}
	}
	for _, opts := range []Options{{NoFastPath: true}, noMemo} {
		got, err := recordedResponses(c, opts)
		if err != nil {
			t.Fatalf("%v %+v: %v", c, opts, err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%v %+v: recorded %v, brute force %v", c, opts, got, want)
		}
	}
}

// FuzzSequentialWitness: any sequential question of at most 6 candidates, on
// a register, a queue or a fetch&inc (with reads it cannot apply), must be
// answered as the brute-force oracle answers it. The seed corpus is
// testdata/fuzz/FuzzSequentialWitness.
func FuzzSequentialWitness(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSeqCase(t, decodeSeqCase(data))
	})
}

// The fuzz body in tier-1, on random byte strings.
func TestQuickFuzzSequentialWitnessBody(t *testing.T) {
	f := func(data []byte) bool {
		checkSeqCase(t, decodeSeqCase(data))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The 64th bit: 63 must operations and the final one fill the mask.
func TestSequentialWitnessFullMask(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	ones := slices.Repeat([]spec.Op{wr(1)}, MaxOpsPerObject)
	for _, opts := range []Options{{}, {NoFastPath: true}} {
		if ok, err := SequentialWitness(obj, ones, nil, rd, 1, opts); err != nil || !ok {
			t.Fatalf("63 x write(1), read -> 1: %v %v", ok, err)
		}
		if ok, err := SequentialWitness(obj, ones[:62], []spec.Op{wr(2)}, rd, 2, opts); err != nil || !ok {
			t.Fatalf("62 x write(1) + opt write(2), read -> 2: %v %v", ok, err)
		}
		if _, err := SequentialWitness(obj, ones[:62], []spec.Op{wr(2), wr(3)}, rd, 2, opts); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("64 candidates: err = %v, want ErrTooLarge", err)
		}
	}
}

// randomOpHistory is a single-object history of n operations drawn from ops
// on 3 processes, with arbitrary responses, ending with process p's pending
// final operation; only who invoked what, and when, matters to Definition 1's
// response set. It also returns the candidates a test-side reading of
// Definition 1 gives: p's earlier operations are mandatory, all others
// optional (every one is invoked before the hypothetical response).
func randomOpHistory(r *rand.Rand, ops []spec.Op, n int) (h *history.History, p int, must, opt []spec.Op, final spec.Op) {
	h = history.New()
	pending := map[int]bool{}
	for invoked := 0; invoked < n; {
		q := r.Intn(3)
		if pending[q] {
			if err := h.Respond(q, int64(r.Intn(3))); err != nil {
				panic(err)
			}
			delete(pending, q)
			continue
		}
		op := ops[r.Intn(len(ops))]
		if err := h.Invoke(q, "X", op); err != nil {
			panic(err)
		}
		pending[q] = true
		invoked++
	}
	p = r.Intn(3)
	if pending[p] {
		if err := h.Respond(p, 0); err != nil {
			panic(err)
		}
	}
	for _, o := range h.Operations() {
		if o.Proc == p {
			must = append(must, o.Op)
		} else {
			opt = append(opt, o.Op)
		}
	}
	final = ops[r.Intn(len(ops))]
	if err := h.Invoke(p, "X", final); err != nil {
		panic(err)
	}
	return h, p, must, opt, final
}

// AppendWeakResponses, generic and fast, is the set of responses the brute-force
// oracle accepts for the pending operation.
func TestWeakResponsesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		k := seqKinds[trial%len(seqKinds)]
		h, p, must, opt, final := randomOpHistory(r, k.ops, r.Intn(6))
		want := slices.Sorted(maps.Keys(bruteResponses(k.obj, must, opt, final)))
		for _, opts := range []Options{{}, {NoFastPath: true}, {NoFastPath: true, NoMemo: true}} {
			got, err := weakResponses(k.obj, h, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d %+v: AppendWeakResponses = %v, brute force %v\n%s", k.name, trial, opts, got, want, h)
			}
		}
	}
}

// On a one-object history the product search is the single-object search:
// TLinearizableMulti equals TLinearizable at every t.
func TestQuickMultiOneObjectMatchesSingle(t *testing.T) {
	f := func(seed int64, fetchInc bool) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.HistoryConfig{Procs: 3, Ops: 7, Corrupt: 0.3, PendingBias: 0.3}
		obj, h := spec.NewObject(spec.Register{}), gen.Register(r, cfg)
		if fetchInc {
			obj, h = spec.NewObject(spec.FetchInc{}), gen.FetchInc(r, cfg)
		}
		for cut := 0; cut <= h.Len(); cut++ {
			single, err := TLinearizable(obj, h, cut, Options{})
			if err != nil {
				t.Fatal(err)
			}
			multi, err := TLinearizableMulti(map[string]spec.Object{"X": obj}, h, cut, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if single != multi {
				t.Logf("t=%d: TLinearizable %v, TLinearizableMulti %v\n%s", cut, single, multi, h)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every generic "yes" is auditable. At t = 0 and at t = MinT,
// whenever the generic search says a register or fetch&inc history is
// t-linearizable, Linearization names an order the independent auditor
// accepts; on fetch&inc the Lemma 17 kernel gives the same verdict, and its
// own "yes" is audited too, through the order kernelOrder builds.
func TestQuickGenericYesIsAudited(t *testing.T) {
	yes := 0
	f := func(seed int64, fetchInc bool) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.HistoryConfig{Procs: 3, Ops: 9, Corrupt: 0.3, PendingBias: 0.4}
		obj, h := spec.NewObject(spec.Register{}), gen.Register(r, cfg)
		if fetchInc {
			obj, h = spec.NewObject(spec.FetchInc{}), gen.FetchInc(r, cfg)
		}
		minT, ok, err := MinT(obj, h, Options{})
		if err != nil || !ok {
			t.Fatalf("MinT: %v %v\n%s", ok, err, h)
		}
		for _, cut := range []int{0, minT} {
			generic, err := TLinearizable(obj, h, cut, Options{NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			if fetchInc {
				if kernel, err := TLinearizable(obj, h, cut, Options{}); err != nil || kernel != generic {
					t.Logf("t=%d: kernel %v (%v), generic %v\n%s", cut, kernel, err, generic, h)
					return false
				}
				if generic {
					steps := kernelOrder(t, obj, h, cut)
					if err := ValidateLinearization(obj, h, cut, steps); err != nil {
						t.Logf("t=%d: auditor rejects the kernel's order: %v\n%s\n%s", cut, err, h, FormatLinearization(steps))
						return false
					}
				}
			}
			if !generic {
				continue
			}
			yes++
			steps, found, err := Linearization(obj, h, cut, Options{})
			if err != nil || !found {
				t.Logf("t=%d: decision yes, Linearization %v %v\n%s", cut, found, err, h)
				return false
			}
			if err := ValidateLinearization(obj, h, cut, steps); err != nil {
				t.Logf("t=%d: auditor rejects the witness: %v\n%s\n%s", cut, err, h, FormatLinearization(steps))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if yes < 100 {
		t.Fatalf("only %d generic yes verdicts were audited", yes)
	}
}

// kernelOrder turns the fetch&inc kernel's "yes" at cut into a
// t-linearization of h. FetchIncSlots places the operations answered in the
// suffix; each other slot up to the top one is filled greedily, by an
// operation answered in the prefix, or else by a pending one whose real-time
// lower bound (the top slot answered before its suffix invocation) lies
// below it; the prefix-answered operations left over follow. Any eligible
// filler serves, since one eligible for a slot is eligible for every slot
// above it.
func kernelOrder(t *testing.T, obj spec.Object, h *history.History, cut int) []LinStep {
	t.Helper()
	slots, err := FetchIncSlots(obj, h, cut)
	if err != nil {
		t.Fatal(err)
	}
	ops := h.Operations()
	at := make(map[int64]int, len(slots))
	top := int64(-1)
	for i, s := range slots {
		at[s], top = i, max(top, s)
	}
	var free, pending []int
	bound := make(map[int]int64)
	for i, op := range ops {
		switch _, constrained := slots[i]; {
		case constrained:
		case !op.Pending():
			free = append(free, i)
		default:
			pending, bound[i] = append(pending, i), -1
			for j, s := range slots {
				if op.Inv >= cut && ops[j].Res < op.Inv {
					bound[i] = max(bound[i], s)
				}
			}
		}
	}
	var order []LinStep
	init, _ := obj.Init.Int()
	place := func(i int) {
		order = append(order, LinStep{OpIndex: i, Proc: ops[i].Proc, Op: ops[i].Op, Resp: init + int64(len(order))})
	}
	for g := int64(0); g <= top; g++ {
		if i, ok := at[g]; ok {
			place(i)
			continue
		}
		if len(free) > 0 {
			place(free[0])
			free = free[1:]
			continue
		}
		k := slices.IndexFunc(pending, func(i int) bool { return bound[i] < g })
		if k < 0 {
			t.Fatalf("t=%d: the kernel said yes, but no operation fills slot %d\n%s", cut, g, h)
		}
		place(pending[k])
		pending = slices.Delete(pending, k, k+1)
	}
	for _, i := range free {
		place(i)
	}
	return order
}

// composeLinearization is the constructive proof of locality (Lemmas 7/8 at
// t = 0, after arXiv 1412.8324): from one witness order per object it builds
// a global order of h's operations by topologically sorting the union of the
// per-object orders with h's real-time order. It fails if that union has a
// cycle. Steps carry global operation indices.
func composeLinearization(objs map[string]spec.Object, h *history.History) ([]LinStep, error) {
	ops := h.Operations()
	pred, _, _ := opConstraints(ops, 0)
	after := make([]uint64, len(ops)) // after[i]: i must follow these
	copy(after, pred)
	step := make(map[int]LinStep)
	for _, name := range h.Objects() {
		var global []int // projection index -> global index
		for i, o := range ops {
			if o.Obj == name {
				global = append(global, i)
			}
		}
		steps, ok, err := Linearization(objs[name], h.ByObject(name), 0, Options{})
		if err != nil || !ok {
			return nil, fmt.Errorf("object %s: no witness (%v)", name, err)
		}
		for k, s := range steps {
			s.OpIndex = global[s.OpIndex]
			step[s.OpIndex] = s
			if k > 0 {
				after[s.OpIndex] |= 1 << uint(global[steps[k-1].OpIndex])
			}
		}
	}
	var order []LinStep
	var placed uint64
	for len(order) < len(step) {
		next := -1
		for i := range ops {
			if _, in := step[i]; in && placed&(1<<uint(i)) == 0 && after[i]&^placed == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("per-object orders and real time form a cycle")
		}
		order = append(order, step[next])
		placed |= 1 << uint(next)
	}
	return order, nil
}

// auditGlobal checks a global order over the whole multi-object history h:
// each object's subsequence is legal from its initial state, every completed
// operation is present with its response, and real time is respected
// between all operations, whichever objects they are on.
func auditGlobal(objs map[string]spec.Object, h *history.History, order []LinStep) error {
	ops := h.Operations()
	pred, constrained, completed := opConstraints(ops, 0)
	states := make(map[string]spec.State)
	for name, obj := range objs {
		states[name] = obj.Init
	}
	var chosen uint64
	for k, s := range order {
		o, bit := ops[s.OpIndex], uint64(1)<<uint(s.OpIndex)
		if chosen&bit != 0 || pred[s.OpIndex]&^chosen != 0 {
			return fmt.Errorf("step %d: %v repeated or before a real-time predecessor", k, o)
		}
		if constrained&bit != 0 && s.Resp != o.Resp {
			return fmt.Errorf("step %d: %v takes response %d", k, o, s.Resp)
		}
		legal := false
		for _, out := range spec.Outcomes(objs[o.Obj].Type, states[o.Obj], o.Op) {
			if out.Resp == s.Resp {
				states[o.Obj], legal = out.Next, true
				break
			}
		}
		if !legal {
			return fmt.Errorf("step %d: %v -> %d illegal in state %v", k, o, s.Resp, states[o.Obj])
		}
		chosen |= bit
	}
	if chosen&completed != completed {
		return fmt.Errorf("order omits completed operations")
	}
	return nil
}

// The compositional audit: whenever Linearizable accepts a two-object
// history through locality, the per-object witnesses compose into one
// global order that the whole-history audit accepts.
func TestLocalityComposesAudited(t *testing.T) {
	objs := map[string]spec.Object{
		"X": spec.NewObject(spec.Register{}),
		"Y": spec.NewObject(spec.FetchInc{}),
	}
	r := rand.New(rand.NewSource(29))
	yes := 0
	for trial := 0; trial < 300; trial++ {
		h := randomTwoObjectHistory(r, 3, 8, 0.3)
		ok, err := Linearizable(objs, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		yes++
		order, err := composeLinearization(objs, h)
		if err == nil {
			err = auditGlobal(objs, h, order)
		}
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, h)
		}
	}
	if yes < 50 {
		t.Fatalf("only %d of 300 histories were linearizable", yes)
	}
}
