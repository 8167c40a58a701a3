package check

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// mustHistory builds a history from (kind, proc, obj, op-or-resp) calls.
type hb struct {
	t *testing.T
	h *history.History
}

func build(t *testing.T) *hb { return &hb{t: t, h: history.New()} }

func (b *hb) inv(p int, obj string, op spec.Op) *hb {
	b.t.Helper()
	if err := b.h.Invoke(p, obj, op); err != nil {
		b.t.Fatal(err)
	}
	return b
}

func (b *hb) res(p int, r int64) *hb {
	b.t.Helper()
	if err := b.h.Respond(p, r); err != nil {
		b.t.Fatal(err)
	}
	return b
}

func (b *hb) call(p int, obj string, op spec.Op, r int64) *hb {
	return b.inv(p, obj, op).res(p, r)
}

var (
	fi    = spec.MakeOp(spec.MethodFetchInc)
	rd    = spec.MakeOp(spec.MethodRead)
	wr    = func(v int64) spec.Op { return spec.MakeOp1(spec.MethodWrite, v) }
	regX  = map[string]spec.Object{"X": spec.NewObject(spec.Register{})}
	fincX = map[string]spec.Object{"X": spec.NewObject(spec.FetchInc{})}
)

func TestLegal(t *testing.T) {
	h := build(t).
		call(0, "X", wr(5), 0).
		call(1, "X", rd, 5).
		call(0, "X", rd, 5).h
	ok, err := Legal(regX, h)
	if err != nil || !ok {
		t.Fatalf("Legal = %v, %v; want true", ok, err)
	}

	bad := build(t).
		call(0, "X", wr(5), 0).
		call(1, "X", rd, 7).h
	ok, err = Legal(regX, bad)
	if err != nil || ok {
		t.Fatalf("Legal = %v, %v; want false", ok, err)
	}

	// Non-sequential input is rejected.
	conc := build(t).inv(0, "X", rd).inv(1, "X", rd).h
	if _, err := Legal(regX, conc); err == nil {
		t.Error("Legal accepted concurrent history")
	}

	// Missing spec is an error.
	if _, err := Legal(map[string]spec.Object{}, h); err == nil {
		t.Error("Legal accepted history with unknown object")
	}

	// Trailing pending invocation is fine.
	pend := build(t).call(0, "X", wr(1), 0).inv(1, "X", rd).h
	ok, err = Legal(regX, pend)
	if err != nil || !ok {
		t.Fatalf("Legal with pending tail = %v, %v; want true", ok, err)
	}
}

// TestLegalLongHistory: a sequential history longer than a mask has bits is
// judged, and a wrong read late in it is seen.
// longRegisterHistory is a sequential register history of 200 operations
// in which operation 2k reads what operation 2k-1 wrote, k%3+1 for k >= 1,
// except that operation wrongAt reads one more.
func longRegisterHistory(t *testing.T, wrongAt int) *history.History {
	b, v := build(t), int64(0)
	for i := 0; i < 200; i++ {
		switch {
		case i%2 == 1:
			v = int64(i/2%3 + 1)
			b.call(0, "X", wr(v), 0)
		case i == wrongAt:
			b.call(0, "X", rd, v+1)
		default:
			b.call(0, "X", rd, v)
		}
	}
	return b.h
}

func TestLegalLongHistory(t *testing.T) {
	if ok, err := Legal(regX, longRegisterHistory(t, -1)); err != nil || !ok {
		t.Fatalf("200 legal operations: Legal = %v, %v; want true", ok, err)
	}
	if ok, err := Legal(regX, longRegisterHistory(t, 150)); err != nil || ok {
		t.Fatalf("operation 150 corrupted: Legal = %v, %v; want false", ok, err)
	}
}

// Past 63 operations, t = 0 is decided on the path checker: Linearizable
// accepts long linearizable histories and refuses each once a response after
// operation 63 is corrupted.
func TestLinearizableLongHistory(t *testing.T) {
	// corrupt answers 99, a value no operation writes, to the first read
	// that responds after operation 63 was invoked.
	corrupt := func(h *history.History) *history.History {
		out, ops, done := history.New(), 0, false
		reads := make(map[int]bool)
		for _, e := range h.Events() {
			switch {
			case e.Kind == history.KindInvoke:
				ops++
				reads[e.Proc] = e.Op.Method == spec.MethodRead
			case !done && ops > MaxOpsPerObject && reads[e.Proc]:
				e.Resp, done = 99, true
			}
			if err := out.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if !done {
			t.Fatal("no read responds after operation 63")
		}
		return out
	}
	concurrent := gen.Register(rand.New(rand.NewSource(1)), gen.HistoryConfig{Procs: 2, Ops: 100})
	if n := len(concurrent.Operations()); n <= MaxOpsPerObject {
		t.Fatalf("gen history has %d operations, want more than %d", n, MaxOpsPerObject)
	}
	for _, tc := range []struct {
		name      string
		good, bad *history.History
	}{
		{"sequential", longRegisterHistory(t, -1), longRegisterHistory(t, 150)},
		{"gen 2 procs", concurrent, corrupt(concurrent)},
	} {
		if ok, err := Linearizable(regX, tc.good, Options{}); err != nil || !ok {
			t.Errorf("%s: Linearizable = %v, %v; want true", tc.name, ok, err)
		}
		if ok, err := Linearizable(regX, tc.bad, Options{}); err != nil || ok {
			t.Errorf("%s corrupted: Linearizable = %v, %v; want false", tc.name, ok, err)
		}
	}
}

func TestLinearizableRegisterClassic(t *testing.T) {
	// w(1) by p0 concurrent with read by p1 returning 1: linearizable.
	h := build(t).
		inv(0, "X", wr(1)).
		inv(1, "X", rd).
		res(0, 0).
		res(1, 1).h
	ok, err := Linearizable(regX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("Linearizable = %v, %v; want true", ok, err)
	}

	// read strictly after w(1) returning 0: not linearizable.
	bad := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", rd, 0).h
	ok, err = Linearizable(regX, bad, Options{})
	if err != nil || ok {
		t.Fatalf("Linearizable = %v, %v; want false", ok, err)
	}

	// New-old inversion: two sequential reads see 1 then 0 around a
	// concurrent write — not linearizable.
	inv := build(t).
		inv(0, "X", wr(1)).
		call(1, "X", rd, 1).
		call(1, "X", rd, 0).
		res(0, 0).h
	ok, err = Linearizable(regX, inv, Options{})
	if err != nil || ok {
		t.Fatalf("new-old inversion Linearizable = %v, %v; want false", ok, err)
	}
}

func TestLinearizablePendingOps(t *testing.T) {
	// A pending write may be linearized to explain a read.
	h := build(t).
		inv(0, "X", wr(9)).
		call(1, "X", rd, 9).h
	ok, err := Linearizable(regX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("pending write explain: %v, %v; want true", ok, err)
	}

	// A pending op may also be ignored.
	h2 := build(t).
		inv(0, "X", wr(9)).
		call(1, "X", rd, 0).h
	ok, err = Linearizable(regX, h2, Options{})
	if err != nil || !ok {
		t.Fatalf("pending write ignored: %v, %v; want true", ok, err)
	}
}

func TestLinearizableFetchInc(t *testing.T) {
	// Two concurrent fetchincs returning 0 and 1: linearizable.
	h := build(t).
		inv(0, "X", fi).
		inv(1, "X", fi).
		res(0, 1).
		res(1, 0).h
	ok, err := Linearizable(fincX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("Linearizable = %v, %v; want true", ok, err)
	}

	// Duplicate responses: never linearizable.
	dup := build(t).
		inv(0, "X", fi).
		inv(1, "X", fi).
		res(0, 0).
		res(1, 0).h
	ok, err = Linearizable(fincX, dup, Options{})
	if err != nil || ok {
		t.Fatalf("duplicate Linearizable = %v, %v; want false", ok, err)
	}
	// ... but it IS 1-linearizable: dropping the constraint on the first
	// response (event 2 is p0's res? order: inv0,inv1,res0,res1 — res0 at
	// index 2) frees p0's op. With t=3, p0's response is in the prefix.
	ok, err = TLinearizable(fincX["X"], dup, 3, Options{})
	if err != nil || !ok {
		t.Fatalf("duplicate 3-linearizable = %v, %v; want true", ok, err)
	}
}

func TestTLinearizableSkewReads(t *testing.T) {
	// Sequential: w(1); read->0. Not linearizable; 2-linearizable? The
	// read's response (index 3) is in the suffix for t=2, so the read must
	// return 0 while following w(1) in real time... but w(1)'s response is
	// at index 1 < t, so there is no real-time edge, and the write's
	// position in S is free: S = read->0, write->ok works. Hence even
	// t=2 suffices once the write's response leaves the suffix.
	h := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", rd, 0).h
	ok, err := TLinearizable(regX["X"], h, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("2-linearizable = %v, %v; want true", ok, err)
	}
	ok, err = TLinearizable(regX["X"], h, 1, Options{})
	if err != nil || ok {
		t.Fatalf("1-linearizable = %v, %v; want false (edge from write still in suffix)", ok, err)
	}
	mt, found, err := MinT(regX["X"], h, Options{})
	if err != nil || !found || mt != 2 {
		t.Fatalf("MinT = %d, %v, %v; want 2", mt, found, err)
	}
}

func TestMinTZeroForLinearizable(t *testing.T) {
	h := build(t).
		inv(0, "X", wr(1)).
		inv(1, "X", rd).
		res(1, 0).
		res(0, 0).
		call(1, "X", rd, 1).h
	mt, found, err := MinT(regX["X"], h, Options{})
	if err != nil || !found || mt != 0 {
		t.Fatalf("MinT = %d, %v, %v; want 0", mt, found, err)
	}
}

// minTLinearScan is an oracle for MinT: scan t upward.
func minTLinearScan(t *testing.T, obj spec.Object, h *history.History) int {
	t.Helper()
	for tt := 0; tt <= h.Len(); tt++ {
		ok, err := TLinearizable(obj, h, tt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return tt
		}
	}
	t.Fatalf("history not t-linearizable for any t")
	return -1
}

func TestMinTBinarySearchAgreesWithLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		h := typeHistory(r, regX["X"], regOps, 3, 8, 0.3)
		mt, found, err := MinT(regX["X"], h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("trial %d: no t found", trial)
		}
		want := minTLinearScan(t, regX["X"], h)
		if mt != want {
			t.Fatalf("trial %d: binary MinT=%d, linear=%d\n%s", trial, mt, want, h)
		}
	}
}

func TestLemma5MonotonicityProperty(t *testing.T) {
	// Lemma 5: if a history is t-linearizable it is t'-linearizable for all
	// t' > t. Verified on random register histories with corrupted
	// responses (so both verdicts occur).
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		h := typeHistory(r, regX["X"], regOps, 3, 7, 0.5)
		prev := false
		for tt := 0; tt <= h.Len(); tt++ {
			ok, err := TLinearizable(regX["X"], h, tt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prev && !ok {
				t.Fatalf("trial %d: %d-lin true but %d-lin false\n%s", trial, tt-1, tt, h)
			}
			prev = ok
		}
		if !prev {
			t.Fatalf("trial %d: not |H|-linearizable (register is total)\n%s", trial, h)
		}
	}
}

func TestLemma6PrefixClosureProperty(t *testing.T) {
	// Lemma 6: if H is t-linearizable, so is every prefix of H.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		h := typeHistory(r, regX["X"], regOps, 3, 7, 0.4)
		for tt := 0; tt <= h.Len(); tt += 2 {
			full, err := TLinearizable(regX["X"], h, tt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !full {
				continue
			}
			for k := 0; k <= h.Len(); k++ {
				pre, err := TLinearizable(regX["X"], h.Prefix(k), tt, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !pre {
					t.Fatalf("trial %d: H %d-lin but prefix %d is not\n%s", trial, tt, k, h)
				}
			}
		}
	}
}

func TestSingleObjectGuard(t *testing.T) {
	h := build(t).call(0, "X", rd, 0).call(0, "Y", rd, 0).h
	if _, err := TLinearizable(regX["X"], h, 0, Options{}); err == nil {
		t.Error("single-object checker accepted two objects")
	}
}

// Past 63 operations only t > 0 is refused: t = 0 runs on the path checker,
// which refuses a 64th operation open at once.
func TestTooLarge(t *testing.T) {
	h := history.New()
	for i := 0; i < MaxOpsPerObject+1; i++ {
		if err := h.Call(0, "X", rd, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TLinearizable(regX["X"], h, 1, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("t = 1: err = %v, want ErrTooLarge", err)
	}
	if ok, err := TLinearizable(regX["X"], h, 0, Options{}); err != nil || !ok {
		t.Fatalf("t = 0: %v, %v; want true", ok, err)
	}
	open := history.New()
	for p := 0; p < MaxOpsPerObject+1; p++ {
		if err := open.Invoke(p, "X", rd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TLinearizable(regX["X"], open, 0, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("64 open at t = 0: err = %v, want ErrTooLarge", err)
	}
	// The product-state check reads a multi-object table: past the cap it
	// stays ErrTooLarge at t = 0.
	two := history.New()
	objs := map[string]spec.Object{"X": regX["X"], "Y": regX["X"]}
	for i := 0; i < MaxOpsPerObject+1; i++ {
		if err := two.Call(0, []string{"X", "Y"}[i%2], rd, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TLinearizableMulti(objs, two, 0, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("two objects at t = 0: err = %v, want ErrTooLarge", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	h := typeHistory(r, regX["X"], regOps, 4, 12, 0.4)
	_, err := TLinearizable(regX["X"], h, 0, Options{Budget: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestLocalityAgainstProductState(t *testing.T) {
	// Lemma 7 / Herlihy-Wing locality: per-object linearizability agrees
	// with the direct product-state check.
	objs := map[string]spec.Object{
		"X": spec.NewObject(spec.Register{}),
		"Y": spec.NewObject(spec.FetchInc{}),
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		h := randomTwoObjectHistory(r, 3, 8, 0.3)
		perObj, _, err := LinearizableExplain(objs, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := TLinearizableMulti(objs, h, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if perObj != direct {
			t.Fatalf("trial %d: locality=%v direct=%v\n%s", trial, perObj, direct, h)
		}
	}
}

func TestMinTGlobalUpperSound(t *testing.T) {
	// The Lemma 7 lift is an upper bound: the history is t-linearizable
	// (product check) at the lifted t.
	objs := map[string]spec.Object{
		"X": spec.NewObject(spec.Register{}),
		"Y": spec.NewObject(spec.FetchInc{}),
	}
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		h := randomTwoObjectHistory(r, 3, 7, 0.3)
		tUp, err := MinTGlobalUpper(objs, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := TLinearizableMulti(objs, h, tUp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: lifted t=%d not sufficient\n%s", trial, tUp, h)
		}
	}
}

func randomTwoObjectHistory(r *rand.Rand, nproc, maxOps int, corrupt float64) *history.History {
	h := history.New()
	regVal := int64(0)
	counter := int64(0)
	type pendingOp struct {
		obj    string
		op     spec.Op
		isRead bool
	}
	pending := make(map[int]*pendingOp)
	invoked := 0
	nops := 1 + r.Intn(maxOps)
	for steps := 0; steps < 6*maxOps; steps++ {
		p := r.Intn(nproc)
		if po, ok := pending[p]; ok {
			var resp int64
			switch {
			case po.obj == "Y":
				resp = counter
				counter++
			case po.isRead:
				resp = regVal
			default:
				regVal = po.op.Args[0]
			}
			if r.Float64() < corrupt {
				resp = int64(r.Intn(4))
			}
			if err := h.Respond(p, resp); err != nil {
				panic(err)
			}
			delete(pending, p)
		} else if invoked < nops {
			po := &pendingOp{}
			if r.Intn(2) == 0 {
				po.obj = "Y"
				po.op = fi
			} else {
				po.obj = "X"
				po.isRead = r.Intn(2) == 0
				if po.isRead {
					po.op = rd
				} else {
					po.op = wr(int64(1 + r.Intn(3)))
				}
			}
			if err := h.Invoke(p, po.obj, po.op); err != nil {
				panic(err)
			}
			pending[p] = po
			invoked++
		}
	}
	return h
}

func TestTLinearizableLocalNecessaryNotSufficient(t *testing.T) {
	objs := map[string]spec.Object{
		"R1": spec.NewObject(spec.Register{}),
		"R2": spec.NewObject(spec.Register{}),
	}
	// The k=2 Proposition 9 block: w(R1,1);r(R1)->0; w(R2,1);r(R2)->0.
	h := build(t).
		call(0, "R1", wr(1), 0).
		call(1, "R1", rd, 0).
		call(0, "R2", wr(1), 0).
		call(1, "R2", rd, 0).h
	// With t=2: both projections pass (each object's write response is
	// free in ITS OWN projection after its first 2 events — R1's;
	// R2's projection sees t=2 remove only R2's first two events).
	localOK, _, err := tLinearizableLocal(objs, h, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !localOK {
		t.Fatal("local necessary condition failed unexpectedly")
	}
	// But globally t=2 is insufficient: the R2 block lies entirely in the
	// suffix.
	globalOK, err := TLinearizableMulti(objs, h, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if globalOK {
		t.Fatal("global 2-linearizability should fail (R2 block in suffix)")
	}
	// Necessity: when the local check fails, the global must fail too.
	localOK, badObj, err := tLinearizableLocal(objs, h, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if localOK || badObj == "" {
		t.Fatal("local check at t=0 should fail with a named object")
	}
	globalOK, err = TLinearizableMulti(objs, h, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if globalOK {
		t.Fatal("global t=0 must fail when local fails (Lemma 7 only-if)")
	}
}

func TestMinTMultiExact(t *testing.T) {
	objs := map[string]spec.Object{
		"R1": spec.NewObject(spec.Register{}),
		"R2": spec.NewObject(spec.Register{}),
	}
	h := build(t).
		call(0, "R1", wr(1), 0).
		call(1, "R1", rd, 0).
		call(0, "R2", wr(1), 0).
		call(1, "R2", rd, 0).h
	exact, ok, err := minTMulti(objs, h, Options{})
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	// The R2 write's response (event 5) must leave the suffix: t = 6.
	if exact != 6 {
		t.Fatalf("exact global MinT = %d, want 6", exact)
	}
	lift, err := MinTGlobalUpper(objs, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact > lift {
		t.Fatalf("exact %d exceeds lift %d", exact, lift)
	}
}

func TestProposition9Counterexample(t *testing.T) {
	// The paper's infinite-register history: p writes 1 to R_i, then q
	// reads R_i -> 0, for i = 1, 2, 3, ... Each per-object projection is
	// eventually linearizable (t_o = 4 suffices once both ops answered in
	// the prefix... in fact the projection is 2-linearizable), but the
	// global MinT grows linearly with the prefix: the pattern repeats on
	// fresh objects forever.
	const k = 12
	h := history.New()
	objs := make(map[string]spec.Object)
	for i := 1; i <= k; i++ {
		name := "R" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		objs[name] = spec.NewObject(spec.Register{})
		if err := h.Call(0, name, wr(1), 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Call(1, name, rd, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Per-object: every projection has the same small MinT.
	local, err := MinTLocal(objs, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, to := range local {
		if to != 2 {
			t.Errorf("object %s MinT = %d, want 2", name, to)
		}
	}
	// Global: the last block always needs its write's response (position
	// 4k-3) inside the prefix, so global MinT grows with k.
	prevGlobal := -1
	for blocks := 2; blocks <= k; blocks += 2 {
		pre := h.Prefix(4 * blocks)
		g, err := MinTGlobalUpper(objs, pre, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g <= prevGlobal {
			t.Fatalf("global MinT did not grow: %d then %d at %d blocks", prevGlobal, g, blocks)
		}
		prevGlobal = g
	}
}

func TestSection32Counterexample(t *testing.T) {
	// The fetch&inc history: p's op answers 0 first, then q's ops answer
	// 0, 1, 2, ... Every finite prefix is 2-linearizable (p's op moves to
	// the end with a reassigned response), but the forced slot of p's op
	// equals the number of q-operations — it "escapes to infinity", which
	// is why the infinite history is not 2-linearizable and why
	// t-linearizability is not a safety property (Section 3.2).
	for k := 1; k <= 10; k++ {
		h := history.New()
		if err := h.Call(0, "X", fi, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := h.Call(1, "X", fi, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ok, err := TLinearizable(fincX["X"], h, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("prefix with k=%d should be 2-linearizable", k)
		}
		// Not 0- or 1-linearizable (duplicate response 0 in suffix).
		ok, err = TLinearizable(fincX["X"], h, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("prefix with k=%d should not be 1-linearizable", k)
		}
	}
}

// tLinearizableLocal checks the necessary condition of Lemma 7's only-if
// direction: if the multi-object history h is t-linearizable, then every
// per-object projection is t-linearizable with the same numeral t. A false
// result certifies that h is not t-linearizable (cheaply — no product
// state); a true result is NOT sufficient, as the Proposition 9
// counterexample shows even for histories over finitely many objects when
// t is fixed: each projection can pass while the global cut fails.
func tLinearizableLocal(objs map[string]spec.Object, h *history.History, t int, opts Options) (bool, string, error) {
	return eachObject(objs, h, func(_ string, obj spec.Object, proj *history.History) (bool, error) {
		return TLinearizable(obj, proj, t, opts)
	})
}

// minTMulti computes the exact least global t for which a multi-object
// history is t-linearizable: MinT's search over the product-state checker
// (Lemma 5's monotonicity holds verbatim for multi-object histories). It is
// exponential in the concurrent-operation count; for real workloads use
// MinTGlobalUpper (the Lemma 7 lift), which bounds it from above.
func minTMulti(objs map[string]spec.Object, h *history.History, opts Options) (int, bool, error) {
	obj, tb, err := productOf(objs, h)
	if err != nil {
		return 0, false, err
	}
	return minT(obj, tb, opts, &scratch{})
}
