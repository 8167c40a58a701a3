package check

import (
	"errors"
	"fmt"
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
		if t > 0 || !tb.SingleObject() {
			return false, ErrTooLarge
		}
		// Past the mask DFS's cap, t = 0 on one object is decided on the
		// path checker, whose cap is on operations open at once. Monitor
		// windows at the automatic stride never come here, so they keep the
		// DFS's reused scratch. A product table (TLinearizableMulti) keeps
		// its operations' object names, which the path checker refuses.
		h, err := tb.History()
		if err != nil {
			return false, err
		}
		return pathLinearizable(obj, h, opts)
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
	return windowMinT(obj, &tb, opts, &scratch{})
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
// (counted in H|o's own events), or -1 when no t works for o.
func MinTLocal(objs map[string]spec.Object, h *history.History, opts Options) (map[string]int, error) {
	out := make(map[string]int)
	_, _, err := eachObject(objs, h, func(name string, obj spec.Object, proj *history.History) (bool, error) {
		t, ok, err := MinT(obj, proj, opts)
		if !ok {
			t = -1
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
// It is an upper bound for the exact global MinT; -1 when an object has none.
func MinTGlobalUpper(objs map[string]spec.Object, h *history.History, opts Options) (int, error) {
	local, err := MinTLocal(objs, h, opts)
	if err != nil {
		return 0, err
	}
	t := 0
	for name, to := range local {
		switch {
		case to < 0:
			return -1, nil
		case to == 0:
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

// TLinearizableMulti checks t-linearizability of a multi-object history
// directly, using a product-state search (no locality shortcut). It exists
// to cross-validate the locality lemmas on small histories and to handle
// histories where a single global t matters; prefer the per-object entry
// points for real workloads.
func TLinearizableMulti(objs map[string]spec.Object, h *history.History, t int, opts Options) (bool, error) {
	obj, tb, err := productOf(objs, h)
	if err != nil {
		return false, err
	}
	return tLinearizable(obj, tb, t, opts, &scratch{})
}

// productOf returns h as one object of type product, with the operation
// table the search reads it through: each operation's Op is its index.
func productOf(objs map[string]spec.Object, h *history.History) (spec.Object, *history.OpTable, error) {
	tb := new(history.OpTable)
	tb.Fill(h)
	names := h.Objects()
	place := make(map[string]int, len(names))
	init := make([]spec.State, len(names))
	for i, name := range names {
		obj, ok := objs[name]
		if !ok {
			return spec.Object{}, nil, fmt.Errorf("check: no specification for object %q", name)
		}
		place[name], init[i] = i, obj.Init
	}
	p := &product{ops: make([]productOp, len(tb.Ops)), rows: make(map[string]*[]spec.State)}
	for i := range tb.Ops {
		o := &tb.Ops[i]
		p.ops[i] = productOp{objs[o.Obj].Type, place[o.Obj], o.Op}
		o.Op = spec.MakeOp1("op", int64(i)) // product's operations are indices
	}
	p.init = p.intern(init)
	return spec.Object{Type: p, Init: p.init}, tb, nil
}

// product is the type of a multi-object history seen as one object, the
// input that turns the single-object search into the product-state check.
// Its operations are the history's operation indices and its states are
// rows of per-object states, interned so that equal rows are one pointer:
// memoKey{mask, state} then memoizes product states unchanged.
type product struct {
	ops  []productOp // by operation index
	init *[]spec.State
	rows map[string]*[]spec.State
	key  []byte
	next []spec.State
}

// productOp is one operation of a product: the operation itself, its
// object's type and its object's place in a row.
type productOp struct {
	typ   spec.Type
	place int
	op    spec.Op
}

func (p *product) Name() string        { return "product" }
func (p *product) Init() spec.State    { return p.init }
func (p *product) Deterministic() bool { return false }

func (p *product) Step(s spec.State, op spec.Op, i int) (spec.Outcome, int) {
	o, row := &p.ops[op.Args[0]], *s.(*[]spec.State)
	out, n := o.typ.Step(row[o.place], o.op, i)
	if i < n {
		out.Next = p.with(row, o.place, out.Next)
	}
	return out, n
}

// with returns the interned row equal to row with place set to st.
func (p *product) with(row []spec.State, place int, st spec.State) *[]spec.State {
	p.next = append(p.next[:0], row...)
	p.next[place] = st
	return p.intern(p.next)
}

// intern returns the one stored row equal to row, keyed by the states'
// fingerprints; a state with none falls back to fmt.
func (p *product) intern(row []spec.State) *[]spec.State {
	p.key = p.key[:0]
	for _, st := range row {
		var ok bool
		if p.key, ok = spec.AppendFPState(p.key, st); !ok {
			p.key = fmt.Appendf(append(p.key, '?'), "%v\x00", st)
		}
	}
	if r, ok := p.rows[string(p.key)]; ok {
		return r
	}
	r := slices.Clone(row)
	p.rows[string(p.key)] = &r
	return &r
}

// oneObject is History.SingleObject as the single-object entry points' error.
func oneObject(h *history.History) error {
	if !h.SingleObject() {
		objs := h.Objects()
		return fmt.Errorf("check: single-object checker given %d objects %v", len(objs), objs)
	}
	return nil
}

// tableOneObject is oneObject on a table. Only a table on more than one
// object is materialized, for oneObject to name its objects.
func tableOneObject(tb *history.OpTable) error {
	if tb.SingleObject() {
		return nil
	}
	h, err := tb.History()
	if err != nil {
		return err
	}
	return oneObject(h)
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
// reused.
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
	pr.budget, pr.noMemo, pr.trace = opts.budget(), opts.NoMemo, nil
	if pr.memo == nil || len(pr.memo) > memoKeep {
		pr.memo = make(map[memoKey]struct{})
	} else {
		clear(pr.memo)
	}
	pr.pred, pr.constrained, pr.completed = tableConstraints(tb, t, pr.pred)
}

// resetSeq prepares the search for a sequential question instead of a
// history: is there a legal sequential execution from obj's initial state of
// every operation in must, any subset of opt, and then final returning resp?
// must takes bits 0..m-1, opt the next bits and final the last; final follows
// all of must and is the one completed and constrained operation.
func (pr *tlinProblem) resetSeq(obj spec.Object, must, opt []spec.Op, final spec.Op, resp int64, opts Options) {
	ops := make([]history.Operation, 0, len(must)+len(opt)+1)
	for _, set := range [2][]spec.Op{must, opt} {
		for _, op := range set {
			ops = append(ops, history.Operation{Op: op, Res: -1})
		}
	}
	ops = append(ops, history.Operation{Op: final, Resp: resp, Res: -1})
	pr.reset(obj, &history.OpTable{Ops: ops}, 0, opts)
	last := uint64(1) << uint(len(ops)-1)
	mustMask := uint64(1)<<uint(len(must)) - 1
	pr.pred[len(ops)-1] = mustMask
	pr.constrained, pr.completed = last, mustMask|last
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
	for i := range pr.ops {
		bit := uint64(1) << uint(i)
		if chosen&bit != 0 || pr.pred[i]&^chosen != 0 {
			continue
		}
		op := &pr.ops[i]
		for k, n := 0, 1; k < n; k++ {
			var out spec.Outcome
			if out, n = pr.typ.Step(state, op.Op, k); k >= n {
				break
			}
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
