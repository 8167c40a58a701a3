package check

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// The PathChecker is pinned to the from-scratch procedures. (Its verdicts on
// every leaf of real execution trees are pinned in package explore, which
// this package cannot import: TestPathCheckerMatchesLinearizable there.)

// pathMove is one move of a script played into a PathChecker: a truncation
// to cut events when cut >= 0, otherwise a push of ev.
type pathMove struct {
	cut int
	ev  history.Event
}

func pushes(events []history.Event) []pathMove {
	script := make([]pathMove, len(events))
	for i, e := range events {
		script[i] = pathMove{cut: -1, ev: e}
	}
	return script
}

// pathDiverges plays script into a PathChecker (through push) and into a
// History side by side and describes the first point where the checker is
// wrong, or returns "": push accepting an event Append rejects (or one on a
// second object) or rejecting one it takes; a verdict that differs from
// TLinearizable's, kernel or generic engine, on the history held; a history
// that is linearizable again after a prefix of it was not (Lemma 6).
func pathDiverges(obj spec.Object, script []pathMove, push func(*PathChecker, history.Event) error) string {
	pc := NewPathChecker(obj, Options{})
	h := history.New()
	deadAt := -1
	for i, m := range script {
		if m.cut >= 0 {
			pc.Truncate(m.cut)
			h.Truncate(m.cut)
		} else {
			herr := errors.New("second object")
			if h.Len() == 0 || m.ev.Obj == h.Event(0).Obj {
				herr = h.Append(m.ev)
			}
			if perr := push(pc, m.ev); (perr == nil) != (herr == nil) {
				return fmt.Sprintf("move %d (%s): Push: %v, Append: %v\n%s", i, m.ev, perr, herr, h)
			}
		}
		if pc.Len() != h.Len() {
			return fmt.Sprintf("move %d: checker holds %d events, history %d", i, pc.Len(), h.Len())
		}
		got := pc.Linearizable()
		for _, opts := range []Options{{}, {NoFastPath: true}} {
			want, err := TLinearizable(obj, h, 0, opts)
			if err != nil {
				return fmt.Sprintf("move %d: oracle: %v", i, err)
			}
			if got != want {
				return fmt.Sprintf("move %d: path says %v, from scratch (%+v) says %v\n%s", i, got, opts, want, h)
			}
		}
		if h.Len() < deadAt {
			deadAt = -1
		}
		if !got && deadAt < 0 {
			deadAt = h.Len()
		}
		if got && deadAt >= 0 {
			return fmt.Sprintf("move %d: linearizable at %d events, was not at %d\n%s", i, h.Len(), deadAt, h)
		}
	}
	return ""
}

// replayScript feeds h event by event and, now and then, truncates to a
// random earlier length and feeds the events from there again.
func replayScript(r *rand.Rand, h *history.History) []pathMove {
	events := h.Events()
	var script []pathMove
	for n := 1; n <= len(events); n++ {
		script = append(script, pathMove{cut: -1, ev: events[n-1]})
		if r.Intn(4) == 0 {
			m := r.Intn(n + 1)
			script = append(script, pathMove{cut: m})
			script = append(script, pushes(events[m:n])...)
		}
	}
	return script
}

// quickPathScripts is the property's input: histories with pending
// operations, corrupted responses on most, on a kernel type and a generic one.
func quickPathScripts(seed int64) (spec.Object, []pathMove, spec.Object, []pathMove) {
	r := rand.New(rand.NewSource(seed))
	cfg := gen.HistoryConfig{Procs: 2 + r.Intn(3), Ops: 4 + r.Intn(8), Corrupt: float64(r.Intn(3)) * 0.15, PendingBias: 0.4}
	fi := gen.FetchInc(r, cfg)
	reg := gen.Register(r, cfg)
	return spec.NewObject(spec.FetchInc{}), replayScript(r, fi.Prefix(r.Intn(fi.Len()+1))),
		spec.NewObject(spec.Register{}), replayScript(r, reg.Prefix(r.Intn(reg.Len()+1)))
}

// Property: fed event by event, truncated and replayed at random, the path
// checker says at every length what the from-scratch check says.
func TestQuickPathCheckerMatchesFromScratch(t *testing.T) {
	f := func(seed int64) bool {
		fi, fiScript, reg, regScript := quickPathScripts(seed)
		for _, d := range []string{
			pathDiverges(fi, fiScript, (*PathChecker).Push),
			pathDiverges(reg, regScript, (*PathChecker).Push),
		} {
			if d != "" {
				t.Log(d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// pushSkippingAssigned is Push with a perturbed copy of respond: a
// configuration that linearized the answering operation while it was open
// survives whatever response it had assigned.
func pushSkippingAssigned(pc *PathChecker, e history.Event) error {
	top := pc.levels[len(pc.levels)-1]
	j := -1
	for rest := top.open; rest != 0; rest &= rest - 1 {
		if i := bits.TrailingZeros64(rest); pc.ops[pc.at[i]].proc == e.Proc {
			j = i
		}
	}
	if e.Kind != history.KindRespond || j < 0 || e.Obj != pc.obj {
		return pc.Push(e)
	}
	lo, hi, open := top.lo, top.hi, top.open
	top.lo, top.open = hi, open&^(1<<j)
	pc.left = pc.budget
	for k := lo; k < hi; k++ {
		c := pc.cfgs[k]
		for rest, a := c.mask&open, c.asg; rest != 0; rest, a = rest&(rest-1), a+1 {
			pc.cur[bits.TrailingZeros64(rest)] = pc.asg[a]
		}
		if c.mask&(1<<j) != 0 {
			pc.emit(&top, c.mask, c.state) // the kernel asks pc.cur[j] == e.Resp first
		} else if err := pc.linearize(&top, open, c.mask, c.state, j, e.Resp); err != nil {
			return err
		}
	}
	top.hi, top.asg = len(pc.cfgs), len(pc.asg)
	pc.levels = append(pc.levels, top)
	return nil
}

// TestPathOracleRejectsPerturbedKernel shows the property has teeth: run
// over the same inputs with the assigned-response comparison taken out of
// the response step, it must report a divergence.
func TestPathOracleRejectsPerturbedKernel(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 300; seed++ {
		fi, fiScript, reg, regScript := quickPathScripts(seed)
		if pathDiverges(fi, fiScript, pushSkippingAssigned) != "" {
			caught++
		}
		if pathDiverges(reg, regScript, pushSkippingAssigned) != "" {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("the oracle accepts a response step that ignores assigned responses")
	}
	t.Logf("perturbed kernel caught on %d of 600 scripts", caught)
}

// coinType is a nondeterministic type (flip has two outcomes): flip answers 0
// or 1 and remembers it, last answers the latest flip.
func coinType() *spec.TableType {
	flip, last := spec.MakeOp("flip"), spec.MakeOp("last")
	delta := map[spec.TableKey][]spec.Outcome{}
	for s := int64(0); s < 2; s++ {
		delta[spec.TableKey{State: s, Op: flip}] = []spec.Outcome{{Resp: 0, Next: int64(0)}, {Resp: 1, Next: int64(1)}}
		delta[spec.TableKey{State: s, Op: last}] = []spec.Outcome{{Resp: s, Next: s}}
	}
	return &spec.TableType{TypeName: "coin", NStates: 2, Ops: []spec.Op{flip, last}, Delta: delta}
}

// fuzzPathScript decodes bytes into an object and a script. Byte 0 picks the
// type. Every further byte b with its top bit set truncates to b&0x7f (mod
// the length + 1) events; any other is an event of process b&3 carrying
// v = b>>2: an invocation of the type's v-th operation if the process is
// idle and the history short, the response v (folded into the type's range)
// if it has an operation open — or, for the two largest v, a malformed
// event: the other kind, or the right kind on a second object. Bytes past
// the 256th are ignored: every move costs two checks from scratch.
func fuzzPathScript(data []byte) (spec.Object, []pathMove) {
	if len(data) == 0 {
		data = []byte{0}
	}
	data = data[:min(len(data), 256)]
	types := []spec.Type{spec.FetchInc{}, spec.Register{}, spec.CAS{}, spec.Queue{}, spec.Consensus{}, coinType()}
	typ := types[int(data[0])%len(types)]
	ops := typ.(spec.OpEnumerator).EnumOps()
	span := int64(4) // responses -1..2
	if typ.Name() == "fetchinc" {
		span = 14
	}
	var script []pathMove
	h := history.New() // the well-formed part of the script, to know who is pending
	for _, b := range data[1:] {
		if b&0x80 != 0 {
			cut := int(b&0x7f) % (h.Len() + 1)
			h.Truncate(cut)
			script = append(script, pathMove{cut: cut})
			continue
		}
		p, v := int(b&3), int64(b>>2)
		open := false
		for i := 0; i < h.Len(); i++ {
			if e := h.Event(i); e.Proc == p {
				open = e.Kind == history.KindInvoke
			}
		}
		e := history.Event{Kind: history.KindInvoke, Proc: p, Obj: "X", Op: ops[int(v)%len(ops)]}
		if open != (v == 31) {
			e = history.Event{Kind: history.KindRespond, Proc: p, Obj: "X", Resp: v%span - 1}
		}
		if v == 30 {
			e.Obj = "Y"
		}
		if e.Kind == history.KindInvoke && h.Len() >= 24 {
			continue
		}
		if e.Obj == "X" {
			_ = h.Append(e) // rejects exactly the malformed events
		}
		script = append(script, pathMove{cut: -1, ev: e})
	}
	return spec.NewObject(typ), script
}

// FuzzPathChecker: on any event stream, well-formed or not, with
// truncations anywhere, the path checker never panics, takes exactly the
// events a History takes, and says at every length what the generic engine
// says from scratch. The seed corpus is testdata/fuzz/FuzzPathChecker.
func FuzzPathChecker(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, script := fuzzPathScript(data)
		if d := pathDiverges(obj, script, (*PathChecker).Push); d != "" {
			t.Fatal(d)
		}
	})
}

// The fuzz body on random bytes, so tier-1 covers every type of the decoder
// (the nondeterministic one included) beyond the committed seeds.
func TestQuickPathCheckerRandomStreams(t *testing.T) {
	f := func(data []byte) bool {
		obj, script := fuzzPathScript(data)
		d := pathDiverges(obj, script, (*PathChecker).Push)
		if d != "" {
			t.Log(d)
		}
		return d == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPathCheckerLimits: a failed Push leaves the checker as it was — on the
// budget, on a 64th operation open at once and on a malformed event — and an
// answered operation frees its slot.
func TestPathCheckerLimits(t *testing.T) {
	fi := spec.NewObject(spec.FetchInc{})
	inv := func(p int) history.Event {
		return history.Event{Kind: history.KindInvoke, Proc: p, Obj: "X", Op: spec.MakeOp(spec.MethodFetchInc)}
	}
	res := func(p int, v int64) history.Event {
		return history.Event{Kind: history.KindRespond, Proc: p, Obj: "X", Resp: v}
	}

	// Six open operations: an answer expands every ordering of the other five.
	pc := NewPathChecker(fi, Options{Budget: 50})
	for p := 0; p < 6; p++ {
		if err := pc.Push(inv(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Push(res(5, 5)); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if pc.Len() != 6 || !pc.Linearizable() {
		t.Fatalf("after ErrBudget: %d events, linearizable %v", pc.Len(), pc.Linearizable())
	}
	pc.Truncate(2)
	if err := pc.Push(res(1, 1)); err != nil || !pc.Linearizable() { // two open: within budget
		t.Fatalf("two open, p1 answers 1: err %v, linearizable %v", err, pc.Linearizable())
	}

	pc = NewPathChecker(fi, Options{})
	for p := 0; p < MaxOpsPerObject; p++ {
		if err := pc.Push(inv(p)); err != nil {
			t.Fatalf("operation %d open at once: %v", p+1, err)
		}
	}
	if err := pc.Push(inv(MaxOpsPerObject)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("64th operation open at once: err = %v, want ErrTooLarge", err)
	}
	if pc.Len() != MaxOpsPerObject || !pc.Linearizable() {
		t.Fatalf("after ErrTooLarge: %d events, linearizable %v", pc.Len(), pc.Linearizable())
	}

	// One process, one operation at a time: the slot is reused past the
	// 63rd operation, and a wrong answer late in the path is still seen.
	const long = 200
	pc = NewPathChecker(fi, Options{})
	for i := 0; i < long; i++ {
		if err := errors.Join(pc.Push(inv(0)), pc.Push(res(0, int64(i)))); err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	if pc.Len() != 2*long || !pc.Linearizable() {
		t.Fatalf("%d sequential operations: %d events, linearizable %v", long, pc.Len(), pc.Linearizable())
	}
	pc.Truncate(2*long - 1)
	if err := pc.Push(res(0, 7)); err != nil || pc.Linearizable() {
		t.Fatalf("operation %d answering 7: err %v, linearizable %v", long, err, pc.Linearizable())
	}

	// p0 and p1 invoke, p0 answers, p2 takes slot 0; the truncation back
	// before p0's answer must hand slot 0 back to p0.
	script := pushes([]history.Event{inv(0), inv(1), res(0, 1), inv(2), res(2, 2)})
	script = append(script, pathMove{cut: 2})
	script = append(script, pushes([]history.Event{res(0, 0), res(1, 1), inv(2), res(2, 2)})...)
	if d := pathDiverges(fi, script, (*PathChecker).Push); d != "" {
		t.Fatal(d)
	}

	pc = NewPathChecker(fi, Options{})
	for _, bad := range []history.Event{res(0, 0), {Proc: 0, Obj: "X"}} {
		if err := pc.Push(bad); err == nil || pc.Len() != 0 {
			t.Fatalf("Push(%v): err %v, %d events held", bad, err, pc.Len())
		}
	}
	if err := pc.Push(inv(0)); err != nil {
		t.Fatal(err)
	}
	other := inv(1)
	other.Obj = "Y"
	for _, bad := range []history.Event{inv(0), res(1, 0), other} {
		if err := pc.Push(bad); err == nil || pc.Len() != 1 {
			t.Fatalf("Push(%v): err %v, %d events held", bad, err, pc.Len())
		}
	}
}

// TestSingleObjectChecksInPlace pins the multi-object entry points on a
// history with one object: they add no allocation to the single-object
// procedure they call (no name set, no projected copy).
func TestSingleObjectChecksInPlace(t *testing.T) {
	h := gen.FetchInc(rand.New(rand.NewSource(3)), gen.HistoryConfig{Procs: 3, Ops: 40})
	obj := spec.NewObject(spec.FetchInc{})
	objs := map[string]spec.Object{"X": obj}
	direct := testing.AllocsPerRun(50, func() {
		if ok, err := TLinearizable(obj, h, 0, Options{}); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	explain := testing.AllocsPerRun(50, func() {
		if ok, _, err := LinearizableExplain(objs, h, Options{}); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	local := testing.AllocsPerRun(50, func() {
		if ok, _, err := tLinearizableLocal(objs, h, 0, Options{}); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	if explain != direct || local != direct {
		t.Fatalf("allocs per run: TLinearizable %v, LinearizableExplain %v, tLinearizableLocal %v", direct, explain, local)
	}
	minT := testing.AllocsPerRun(50, func() {
		if _, _, err := MinT(obj, h, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// MinTLocal returns a map with one entry on top of MinT's own work.
	if minTLocal := testing.AllocsPerRun(50, func() {
		if _, err := MinTLocal(objs, h, Options{}); err != nil {
			t.Fatal(err)
		}
	}); minTLocal > minT+2 {
		t.Fatalf("allocs per run: MinT %v, MinTLocal %v", minT, minTLocal)
	}
}
