package check

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// The differential harness: every entry point of the package asked about
// one history on the type-specialised paths, with NoFastPath, and, on small
// histories, of a brute-force oracle that replays every order with Step. An
// error against a false is a disagreement.

// diffKind is one object type the harness draws histories over, with the
// operations the generator invokes: each kind's last ones are operations its
// type cannot apply.
type diffKind struct {
	name string
	obj  spec.Object
	ops  []spec.Op
}

var (
	ts      = spec.MakeOp(spec.MethodTestSet)
	regOps  = []spec.Op{rd, rd, rd, wr(1), wr(2), wr(3)}
	propOps = []spec.Op{prop(1), prop(2), prop(3), prop(1), prop(2), prop(3), rd, prop(-1)}
)

var diffKinds = []diffKind{
	{"register", spec.NewObject(spec.Register{}), append(slices.Clip(regOps), fi, spec.MakeOp1(spec.MethodRead, 1))},
	{"fetchinc", spec.NewObject(spec.FetchInc{}), []spec.Op{fi, fi, fi, fi, fi, rd}},
	{"fetchinc-init2", spec.Object{Type: spec.FetchInc{InitVal: 2}, Init: spec.IntState(2)}, []spec.Op{fi, fi, fi, fi, fi, rd}},
	{"testset", spec.NewObject(spec.TestSet{}), []spec.Op{ts, ts, ts, ts, rd}},
	{"consensus", spec.NewObject(spec.Consensus{}), propOps},
	{"consensus-decided", spec.Object{Type: spec.Consensus{}, Init: spec.IntState(2)}, propOps},
	{"coin", spec.NewObject(coinType()), append(slices.Clip(coinType().Ops), fi)},
}

// typeHistory is the one history generator of the package's tests: a random
// history of obj on object X by nproc processes, invoking at most maxOps
// operations drawn from ops. Each response is the one the type gives when it
// is given (a random outcome of several, 0 for an operation the type cannot
// apply), shifted by -2..2 with probability corrupt; some operations stay
// pending.
func typeHistory(r *rand.Rand, obj spec.Object, ops []spec.Op, nproc, maxOps int, corrupt float64) *history.History {
	h := history.New()
	st := obj.Init
	pending := make(map[int]spec.Op)
	nops := 1 + r.Intn(maxOps)
	for steps, invoked := 0, 0; steps < 6*maxOps; steps++ {
		p := r.Intn(nproc)
		op, busy := pending[p]
		switch {
		case busy && r.Float64() < 0.15:
		case busy:
			out, n := obj.Type.Step(st, op, 0)
			if n > 1 {
				out, _ = obj.Type.Step(st, op, r.Intn(n))
			}
			if n > 0 {
				st = out.Next
			}
			if r.Float64() < corrupt {
				out.Resp += int64(r.Intn(5)) - 2
			}
			if err := h.Respond(p, out.Resp); err != nil {
				panic(err)
			}
			delete(pending, p)
		case invoked < nops:
			op = ops[r.Intn(len(ops))]
			if err := h.Invoke(p, "X", op); err != nil {
				panic(err)
			}
			pending[p] = op
			invoked++
		}
	}
	return h
}

// bruteMinT is the oracle for Definition 2. It replays with Step every order
// of every set of h's operations that holds all the completed ones, each
// operation taking each of its outcomes, and returns the least t at which
// one of them is a t-linearization. An order works at every t past the last
// response event it breaks: that of a completed operation it answers
// otherwise, or that of one it places after an operation invoked later.
func bruteMinT(obj spec.Object, h *history.History) (int, bool) {
	ops := h.Operations()
	used := make([]bool, len(ops))
	best := -1
	var walk func(state spec.State, left, need int)
	walk = func(state spec.State, left, need int) {
		if best >= 0 && need >= best {
			return
		}
		if left == 0 {
			best = need
			return
		}
		for j, op := range ops {
			if used[j] {
				continue
			}
			after := need
			for i, other := range ops {
				if !used[i] && i != j && !other.Pending() && other.Res < op.Inv {
					after = max(after, other.Res+1)
				}
			}
			used[j] = true
			for _, out := range spec.Outcomes(obj.Type, state, op.Op) {
				switch {
				case op.Pending():
					walk(out.Next, left, after)
				case out.Resp != op.Resp:
					walk(out.Next, left-1, max(after, op.Res+1))
				default:
					walk(out.Next, left-1, after)
				}
			}
			used[j] = false
		}
	}
	completed := 0
	for _, op := range ops {
		if !op.Pending() {
			completed++
		}
	}
	walk(obj.Init, completed, 0)
	return best, best >= 0
}

// definition1 is the oracle's reading of Definition 1's candidates for
// operation k answered at event respIdx: its process's earlier operations
// must be in S, any other invoked before respIdx may be.
func definition1(ops []history.Operation, k, respIdx int) (must, opt []spec.Op) {
	for i, op := range ops {
		switch {
		case i == k:
		case op.Proc == ops[k].Proc && op.Inv < ops[k].Inv:
			must = append(must, op.Op)
		case op.Inv < respIdx:
			opt = append(opt, op.Op)
		}
	}
	return must, opt
}

// answer renders a decision so that an error never equals a verdict.
func answer(ok bool, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return strconv.FormatBool(ok)
}

// differ asks every entry point about h on obj (object X) and returns the
// first disagreement, or "". The oracle is asked when h has at most six
// operations.
func differ(obj spec.Object, h *history.History) string {
	objs := map[string]spec.Object{"X": obj}
	ops := h.Operations()
	oracle := len(ops) <= 6
	minT, tlin := 0, false
	if oracle {
		minT, tlin = bruteMinT(obj, h)
	}
	// agree notes the first question whose answers (the fast path's, then
	// NoFastPath's) differ from each other or from the oracle's want.
	var first string
	agree := func(q, want string, got ...string) {
		for _, g := range got {
			if first == "" && (g != got[0] || oracle && want != "" && g != want) {
				first = fmt.Sprintf("%s: answers %q, oracle %q", q, got, want)
			}
		}
	}
	ask := func(q, want string, f func(Options) string) {
		agree(q, want, f(Options{}), f(Options{NoFastPath: true}))
	}
	oracleAt := func(t int) string { return strconv.FormatBool(tlin && minT <= t) }

	if h.Sequential() {
		legal, err := Legal(objs, h)
		agree("Legal", oracleAt(0), answer(legal, err))
	}
	ask("Linearizable", oracleAt(0), func(o Options) string { return answer(Linearizable(objs, h, o)) })
	for t := 0; t <= h.Len(); t++ {
		ask(fmt.Sprintf("TLinearizable t=%d", t), oracleAt(t), func(o Options) string { return answer(TLinearizable(obj, h, t, o)) })
	}
	want := "none"
	if tlin {
		want = strconv.Itoa(minT)
	}
	ask("MinT", want, func(o Options) string {
		switch t, ok, err := MinT(obj, h, o); {
		case err != nil:
			return "error: " + err.Error()
		case !ok:
			return "none"
		default:
			return strconv.Itoa(t)
		}
	})
	stride := 1 + h.Len()%3
	var track []Sample // the oracle's MinT of each prefix TrackMinT samples, -1 for none
	for k := stride; oracle; k += stride {
		k = min(k, h.Len())
		t, ok := bruteMinT(obj, h.Prefix(k))
		if !ok {
			t = -1
		}
		track = append(track, Sample{Events: k, MinT: t})
		if k == h.Len() {
			break
		}
	}
	ask("TrackMinT", fmt.Sprint(track, false), func(o Options) string {
		v, err := TrackMinT(obj, h, stride, o)
		return fmt.Sprint(v.Samples, err != nil)
	})

	// Definition 1, operation by operation: the oracle is brute force over
	// each completed operation's candidates.
	weak := true
	for k, op := range ops {
		if oracle && !op.Pending() {
			must, opt := definition1(ops, k, op.Res)
			weak = weak && bruteResponses(obj, must, opt, op.Op)[op.Resp]
		}
	}
	ask("WeaklyConsistent", strconv.FormatBool(weak), func(o Options) string { return answer(WeaklyConsistent(objs, h, o)) })

	// A pending operation: Definition 1's response set were it answered
	// now, and line 13's test of it over its candidates.
	var tb history.OpTable
	tb.Fill(h)
	for k, op := range ops {
		if !op.Pending() {
			continue
		}
		must, opt := definition1(ops, k, h.Len())
		var brute map[int64]bool
		if oracle {
			brute = bruteResponses(obj, must, opt, op.Op)
		}
		q := fmt.Sprintf("AppendWeakResponses p%d", op.Proc)
		ask(q, fmt.Sprint(slices.Sorted(maps.Keys(brute))), func(o Options) string {
			set, err := AppendWeakResponses(nil, obj, &tb, op.Proc, o)
			if _, reg := obj.Type.(spec.Register); reg {
				set = slices.Sorted(slices.Values(set))
			}
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprint(set)
		})
		for resp := int64(-1); resp <= int64(len(ops))+2; resp++ {
			q := fmt.Sprintf("SequentialWitness must=%v opt=%v final=%s resp=%d", must, opt, op.Op, resp)
			ask(q, strconv.FormatBool(brute[resp]), func(o Options) string {
				return answer(SequentialWitness(obj, must, opt, op.Op, resp, o))
			})
		}
	}

	// The path checker, event by event, against the oracle on each prefix.
	if oracle {
		pc := NewPathChecker(obj, Options{})
		for i := 0; i < h.Len(); i++ {
			if err := pc.Push(h.Event(i)); err != nil {
				return fmt.Sprintf("PathChecker event %d: %v", i, err)
			}
			t, ok := bruteMinT(obj, h.Prefix(i+1))
			agree(fmt.Sprintf("PathChecker %d events", i+1), strconv.FormatBool(ok && t == 0), strconv.FormatBool(pc.Linearizable()))
		}
	}
	return first
}

// TestDifferential runs the harness on the malformed histories on which a
// type-specialised path once answered otherwise than the search, and on
// generated histories of every kind, sequential and concurrent, small (the
// oracle answers too) and larger.
func TestDifferential(t *testing.T) {
	fetchInc := spec.NewObject(spec.FetchInc{})
	cons := spec.NewObject(spec.Consensus{})
	decided := spec.Object{Type: spec.Consensus{}, Init: spec.IntState(3)}
	for _, row := range []struct {
		name string
		obj  spec.Object
		h    *history.History
	}{
		{"fetchinc-completed-read", fetchInc, build(t).call(0, "X", rd, 0).h},
		{"fetchinc-completed-reads", fetchInc, build(t).call(0, "X", rd, 0).call(1, "X", rd, 0).h},
		{"fetchinc-pending-read", fetchInc, build(t).inv(1, "X", rd).call(0, "X", fi, 0).h},
		{"fetchinc-optional-read", fetchInc, build(t).inv(1, "X", rd).inv(0, "X", fi).h},
		{"consensus-completed-read", cons, build(t).call(0, "X", rd, 0).h},
		{"consensus-negative-proposal", cons, build(t).call(0, "X", prop(-3), 0).h},
		{"consensus-pending-read", cons, build(t).inv(1, "X", rd).call(0, "X", prop(1), 1).h},
		{"consensus-pending-read-answers-0", cons, build(t).inv(1, "X", rd).call(0, "X", prop(1), 0).h},
		{"consensus-decided-read", decided, build(t).call(0, "X", rd, 3).h},
		{"consensus-decided-negative-proposal", decided, build(t).call(0, "X", prop(-2), 3).h},
	} {
		t.Run(row.name, func(t *testing.T) {
			if d := differ(row.obj, row.h); d != "" {
				t.Fatalf("%s\n%s", d, row.h)
			}
		})
	}
	for i, k := range diffKinds {
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i)))
			verdicts := map[bool]int{}
			for trial := range 160 {
				maxOps := 6
				if trial%4 == 3 {
					maxOps = 10
				}
				h := typeHistory(r, k.obj, k.ops, 1+trial%3, maxOps, 0.3)
				if trial%2 == 1 {
					h = h.Prefix(r.Intn(h.Len() + 1)) // operations left pending
				}
				if d := differ(k.obj, h); d != "" {
					t.Fatalf("trial %d: %s\n%s", trial, d, h)
				}
				lin, _ := TLinearizable(k.obj, h, 0, Options{})
				verdicts[lin]++
			}
			if verdicts[true] == 0 || verdicts[false] == 0 {
				t.Errorf("linearizable verdicts %v, want both", verdicts)
			}
		})
	}
}
