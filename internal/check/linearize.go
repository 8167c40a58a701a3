package check

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// TLinearizable reports whether the single-object history h is
// t-linearizable with respect to obj (Definition 2): there is a legal
// sequential history S containing every operation completed in h (plus,
// optionally, pending ones) such that
//
//   - real-time order is respected between operations whose response and
//     invocation events both lie in the suffix of h after the first t
//     events, and
//   - every operation whose response lies in that suffix has the same
//     response in S. Operations answered within the first t events may take
//     any legal response in S.
//
// All events of h must be on a single object; Linearizable and the *Local
// variants handle multi-object histories via locality (Lemmas 7 and 8).
func TLinearizable(obj spec.Object, h *history.History, t int, opts Options) (bool, error) {
	if err := oneObject(h); err != nil {
		return false, err
	}
	var tb history.OpTable
	tb.Fill(h)
	return tLinearizable(obj, &tb, t, opts, &scratch{})
}

// tLinearizable is TLinearizable on a prepared operation table: every probe
// of a MinT search, and the rebase fold after it, share one table.
func tLinearizable(obj spec.Object, tb *history.OpTable, t int, opts Options, sc *scratch) (bool, error) {
	if t < 0 {
		t = 0
	}
	if !opts.NoFastPath {
		switch obj.Type.(type) {
		case spec.FetchInc:
			return fetchIncTLinearizable(obj, tb, t, sc)
		case spec.Consensus:
			return consensusTLinearizable(obj, tb.Ops, t)
		}
	}
	if len(tb.Ops) > MaxOpsPerObject {
		return false, ErrTooLarge
	}
	sc.lin.reset(obj, tb, t, opts)
	return sc.lin.solve()
}

// Linearizable reports whether h is linearizable with respect to objs,
// checking each object's projection independently (linearizability is a
// local property; 0-linearizability coincides with linearizability).
func Linearizable(objs map[string]spec.Object, h *history.History, opts Options) (bool, error) {
	ok, _, err := LinearizableExplain(objs, h, opts)
	return ok, err
}

// LinearizableExplain is Linearizable but also names the first object whose
// projection fails.
func LinearizableExplain(objs map[string]spec.Object, h *history.History, opts Options) (bool, string, error) {
	return eachObject(objs, h, func(_ string, obj spec.Object, proj *history.History) (bool, error) {
		return TLinearizable(obj, proj, 0, opts)
	})
}

// eachObject runs fn on the projection of h onto each of its objects, in
// first-appearance order, and names the first that fails or errs. A history
// on one object (every sim, explore and live one) is checked in place.
func eachObject(objs map[string]spec.Object, h *history.History,
	fn func(name string, obj spec.Object, proj *history.History) (bool, error)) (bool, string, error) {
	single := h.SingleObject()
	var names []string
	switch {
	case !single:
		names = h.Objects()
	case h.Len() > 0:
		names = []string{h.Event(0).Obj}
	}
	for _, name := range names {
		obj, ok := objs[name]
		if !ok {
			return false, name, fmt.Errorf("check: no specification for object %q", name)
		}
		proj := h
		if !single {
			proj = h.ByObject(name)
		}
		ok, err := fn(name, obj, proj)
		if err != nil {
			return false, name, fmt.Errorf("object %q: %w", name, err)
		}
		if !ok {
			return false, name, nil
		}
	}
	return true, "", nil
}

// MinT returns the least t for which the single-object history h is
// t-linearizable. The boolean result is false if h is not t-linearizable
// even for t = h.Len(), which cannot happen for total types.
func MinT(obj spec.Object, h *history.History, opts Options) (int, bool, error) {
	var tb history.OpTable
	tb.Fill(h)
	return windowMinT(obj, h, &tb, opts, &scratch{})
}

// minT is MinT on a prepared operation table. It probes t = 0 first: by the
// monotonicity of t-linearizability in t (Lemma 5) a linearizable history —
// nearly every monitor window — is settled by that one decision, and only a
// failed probe pays the binary search over (0, Len]. A probe that exhausts
// its budget decides nothing, so the search then covers [0, Len].
func minT(obj spec.Object, tb *history.OpTable, opts Options, sc *scratch) (int, bool, error) {
	lo, hi := 1, tb.Events
	switch ok, err := tLinearizable(obj, tb, 0, opts, sc); {
	case errors.Is(err, ErrBudget):
		lo = 0
	case err != nil:
		return 0, false, err
	case ok:
		return 0, true, nil
	}
	ok, err := tLinearizable(obj, tb, hi, opts, sc)
	if err != nil || !ok {
		return 0, false, err
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := tLinearizable(obj, tb, mid, opts, sc)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true, nil
}

// MinTLocal returns the per-object minimum t values {t_o} of Lemma 7: for
// each object o in h, the least t_o such that H|o is t_o-linearizable
// (counted in H|o's own events).
func MinTLocal(objs map[string]spec.Object, h *history.History, opts Options) (map[string]int, error) {
	out := make(map[string]int)
	_, _, err := eachObject(objs, h, func(name string, obj spec.Object, proj *history.History) (bool, error) {
		t, ok, err := MinT(obj, proj, opts)
		if err == nil && !ok {
			err = errors.New("not t-linearizable for any t (non-total type?)")
		}
		out[name] = t
		return true, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MinTGlobalUpper lifts per-object t_o values to a global t via the
// construction in the proof of Lemma 7: the least t such that the first t
// events of h include, for every object o, the first t_o events of H|o.
// It is an upper bound for the exact global MinT.
func MinTGlobalUpper(objs map[string]spec.Object, h *history.History, opts Options) (int, error) {
	local, err := MinTLocal(objs, h, opts)
	if err != nil {
		return 0, err
	}
	t := 0
	for name, to := range local {
		if to == 0 {
			continue
		}
		idx := h.ObjectEventIndex(name)
		if to > len(idx) {
			to = len(idx)
		}
		if g := idx[to-1] + 1; g > t {
			t = g
		}
	}
	return t, nil
}

// TLinearizableLocal checks the necessary condition of Lemma 7's only-if
// direction: if the multi-object history h is t-linearizable, then every
// per-object projection is t-linearizable with the same numeral t. A false
// result certifies that h is not t-linearizable (cheaply — no product
// state); a true result is NOT sufficient, as the Proposition 9
// counterexample shows even for histories over finitely many objects when
// t is fixed: each projection can pass while the global cut fails.
func TLinearizableLocal(objs map[string]spec.Object, h *history.History, t int, opts Options) (bool, string, error) {
	return eachObject(objs, h, func(_ string, obj spec.Object, proj *history.History) (bool, error) {
		return TLinearizable(obj, proj, t, opts)
	})
}

// MinTMulti computes the exact least global t for which a multi-object
// history is t-linearizable, by binary search over the product-state
// checker (Lemma 5's monotonicity holds verbatim for multi-object
// histories). It is exponential in the concurrent-operation count; for
// real workloads use MinTGlobalUpper (the Lemma 7 lift), which bounds it
// from above.
func MinTMulti(objs map[string]spec.Object, h *history.History, opts Options) (int, bool, error) {
	ok, err := TLinearizableMulti(objs, h, h.Len(), opts)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	lo, hi := 0, h.Len()
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := TLinearizableMulti(objs, h, mid, opts)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true, nil
}

// TLinearizableMulti checks t-linearizability of a multi-object history
// directly, using a product-state search (no locality shortcut). It exists
// to cross-validate the locality lemmas on small histories and to handle
// histories where a single global t matters; prefer the per-object entry
// points for real workloads.
func TLinearizableMulti(objs map[string]spec.Object, h *history.History, t int, opts Options) (bool, error) {
	if t < 0 {
		t = 0
	}
	var tb history.OpTable
	tb.Fill(h)
	ops := tb.Ops
	if len(ops) > MaxOpsPerObject {
		return false, ErrTooLarge
	}
	names := h.Objects()
	objIdx := make(map[string]int, len(names))
	states := make([]spec.State, len(names))
	for i, name := range names {
		obj, ok := objs[name]
		if !ok {
			return false, fmt.Errorf("check: no specification for object %q", name)
		}
		objIdx[name] = i
		states[i] = obj.Init
	}
	pr := &multiProblem{
		objs:   objs,
		names:  names,
		objIdx: objIdx,
		ops:    ops,
		budget: opts.budget(),
		memo:   make(map[string]struct{}),
	}
	pr.stack = make([][]spec.State, len(ops)+1)
	for i := range pr.stack {
		pr.stack[i] = make([]spec.State, len(names))
	}
	pr.pred, pr.constrained, pr.completed = tableConstraints(&tb, t, nil)
	return pr.dfs(states, 0)
}

// oneObject is History.SingleObject as the single-object entry points' error.
func oneObject(h *history.History) error {
	if !h.SingleObject() {
		objs := h.Objects()
		return fmt.Errorf("check: single-object checker given %d objects %v", len(objs), objs)
	}
	return nil
}

// tableConstraints computes what the engines search under at cut t: each
// operation's real-time predecessor mask, the constrained-response set and
// the completed set. It is the auditor's opConstraints in O(n) on a prepared
// table, one merge of the invocation order (tb.Ops) with the response order
// (tb.ByRes): the predecessors of an invocation in the suffix are the
// operations answered in the suffix before it, a set that only grows from one
// invocation to the next, so the merge carries it as a running mask. An
// invocation in the prefix needs no test: everything answered before it was
// answered in the prefix, so the mask is still empty there. pred's buffer is
// reused. Shared by the single-object and product-state engines.
func tableConstraints(tb *history.OpTable, t int, pred []uint64) (_ []uint64, constrained, completed uint64) {
	ops := tb.Ops
	pred = slices.Grow(pred[:0], len(ops))[:len(ops)]
	var before uint64
	next := 0
	for j := range ops {
		for ; next < len(tb.ByRes) && ops[tb.ByRes[next]].Res < ops[j].Inv; next++ {
			if i := tb.ByRes[next]; ops[i].Res >= t {
				before |= 1 << uint(i)
			}
		}
		pred[j] = before
	}
	for _, i := range tb.ByRes {
		completed |= 1 << uint(i)
		if ops[i].Res >= t {
			constrained |= 1 << uint(i)
		}
	}
	return pred, constrained, completed
}

// ----------------------------------------------------------------------------
// Single-object engine.

// tlinProblem is the generic single-object search. It lives in a scratch and
// is reset, not rebuilt, by every probe: the predecessor buffer and the memo
// map are reused, so a monitor's steady-state window check allocates nothing.
type tlinProblem struct {
	typ         spec.Type
	det         spec.DetStepper // non-nil fast path: no Step slice per node
	init        spec.State
	ops         []history.Operation
	pred        []uint64
	constrained uint64
	completed   uint64
	budget      int64
	memo        map[memoKey]struct{}
	noMemo      bool
	// trace, when non-nil, receives the order of the successful branch (a
	// witness linearization); decision-only probes leave it nil.
	trace *[]LinStep
}

type memoKey struct {
	mask  uint64
	state spec.State
}

// memoKeep bounds the memo a probe hands on: a probe that left more entries
// than this drops the map instead of clearing it, so one costly window does
// not make every later clear pay for its buckets.
const memoKeep = 1 << 10

// reset prepares the search for one probe of obj at cut t on the table tb.
func (pr *tlinProblem) reset(obj spec.Object, tb *history.OpTable, t int, opts Options) {
	pr.typ, pr.init, pr.ops = obj.Type, obj.Init, tb.Ops
	pr.det, _ = obj.Type.(spec.DetStepper)
	pr.budget, pr.noMemo, pr.trace = opts.budget(), opts.NoMemo, nil
	if pr.memo == nil || len(pr.memo) > memoKeep {
		pr.memo = make(map[memoKey]struct{})
	} else {
		clear(pr.memo)
	}
	pr.pred, pr.constrained, pr.completed = tableConstraints(tb, t, pr.pred)
}

func (pr *tlinProblem) solve() (bool, error) {
	return pr.dfs(pr.init, 0)
}

func (pr *tlinProblem) dfs(state spec.State, chosen uint64) (bool, error) {
	if chosen&pr.completed == pr.completed {
		return true, nil
	}
	pr.budget--
	if pr.budget < 0 {
		return false, ErrBudget
	}
	key := memoKey{mask: chosen, state: state}
	if !pr.noMemo {
		if _, seen := pr.memo[key]; seen {
			return false, nil
		}
	}
	var one [1]spec.Outcome // a DetStepper's outcome, without a Step slice
	for i := range pr.ops {
		bit := uint64(1) << uint(i)
		if chosen&bit != 0 || pr.pred[i]&^chosen != 0 {
			continue
		}
		op := &pr.ops[i]
		outs := one[:0]
		if pr.det == nil {
			outs = pr.typ.Step(state, op.Op)
		} else if out, applicable := pr.det.StepDet(state, op.Op); applicable {
			outs = append(outs, out)
		}
		for _, out := range outs {
			if pr.constrained&bit != 0 && out.Resp != op.Resp {
				continue
			}
			if pr.trace != nil {
				*pr.trace = append(*pr.trace, LinStep{
					OpIndex:     i,
					Proc:        op.Proc,
					Op:          op.Op,
					Resp:        out.Resp,
					RespDiffers: op.Pending() || out.Resp != op.Resp,
				})
			}
			if ok, err := pr.dfs(out.Next, chosen|bit); ok || err != nil {
				return ok, err
			}
			if pr.trace != nil {
				*pr.trace = (*pr.trace)[:len(*pr.trace)-1]
			}
		}
	}
	if !pr.noMemo {
		pr.memo[key] = struct{}{}
	}
	return false, nil
}

// ----------------------------------------------------------------------------
// Product-state engine for multi-object histories.

type multiProblem struct {
	objs        map[string]spec.Object
	names       []string
	objIdx      map[string]int
	ops         []history.Operation
	pred        []uint64
	constrained uint64
	completed   uint64
	budget      int64
	// memo stores failed (mask, product-state) pairs under a compact byte
	// encoding (appendProductKey) instead of the historical fmt-rendered
	// string: lookups reuse keyBuf and allocate nothing; only first-time
	// insertions materialize the key.
	memo   map[string]struct{}
	keyBuf []byte
	// stack provides one product-state row per search depth, so advancing
	// into a child reuses a preallocated row instead of copying into a
	// fresh slice per edge.
	stack [][]spec.State
}

// appendProductKey appends a compact injective encoding of (mask, states)
// to b. States of the concrete spec types are int64 or string; anything
// else falls back to fmt.
func appendProductKey(b []byte, mask uint64, states []spec.State) []byte {
	b = spec.AppendFPInt(b, int64(mask))
	for _, st := range states {
		switch v := st.(type) {
		case int64:
			b = spec.AppendFPInt(append(b, 'i'), v)
		case string:
			b = spec.AppendFPInt(append(b, 's'), int64(len(v)))
			b = append(b, v...)
		default:
			b = append(b, '?')
			b = fmt.Appendf(b, "%v", v)
			b = append(b, 0)
		}
	}
	return b
}

func (pr *multiProblem) dfs(states []spec.State, chosen uint64) (bool, error) {
	if chosen&pr.completed == pr.completed {
		return true, nil
	}
	pr.budget--
	if pr.budget < 0 {
		return false, ErrBudget
	}
	pr.keyBuf = appendProductKey(pr.keyBuf[:0], chosen, states)
	if _, seen := pr.memo[string(pr.keyBuf)]; seen {
		return false, nil
	}
	depth := bits.OnesCount64(chosen)
	for i := range pr.ops {
		bit := uint64(1) << uint(i)
		if chosen&bit != 0 || pr.pred[i]&^chosen != 0 {
			continue
		}
		oi := pr.objIdx[pr.ops[i].Obj]
		typ := pr.objs[pr.ops[i].Obj].Type
		for _, out := range typ.Step(states[oi], pr.ops[i].Op) {
			if pr.constrained&bit != 0 && out.Resp != pr.ops[i].Resp {
				continue
			}
			next := pr.stack[depth+1]
			copy(next, states)
			next[oi] = out.Next
			ok, err := pr.dfs(next, chosen|bit)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	pr.keyBuf = appendProductKey(pr.keyBuf[:0], chosen, states)
	pr.memo[string(pr.keyBuf)] = struct{}{}
	return false, nil
}
