package check

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// WeaklyConsistent reports whether every completed operation of h satisfies
// Definition 1: for each operation op with a response, there is a legal
// sequential history S that (i) contains only operations invoked in h
// before op terminates, (ii) contains all operations by op's process that
// precede op, and (iii) ends with op returning the same response as in h.
//
// Weak consistency is a local property (Lemma 8), so the check partitions h
// by object.
func WeaklyConsistent(objs map[string]spec.Object, h *history.History, opts Options) (bool, error) {
	ok, _, err := WeaklyConsistentExplain(objs, h, opts)
	return ok, err
}

// WeaklyConsistentExplain is WeaklyConsistent but also reports the first
// violating operation (as rendered by history.Operation.String), if any.
func WeaklyConsistentExplain(objs map[string]spec.Object, h *history.History, opts Options) (bool, string, error) {
	for _, name := range h.Objects() {
		obj, ok := objs[name]
		if !ok {
			return false, "", fmt.Errorf("check: no specification for object %q", name)
		}
		proj := h.ByObject(name)
		ops := proj.Operations()
		for k, op := range ops {
			if op.Pending() {
				continue
			}
			ok, err := weakWitness(obj, ops, k, op.Resp, op.Res, opts)
			if err != nil {
				return false, op.String(), fmt.Errorf("object %q op %s: %w", name, op, err)
			}
			if !ok {
				return false, op.String(), nil
			}
		}
	}
	return true, "", nil
}

// AppendWeakResponses appends to buf the set of responses r such that, were
// process proc's pending operation in the single-object table tb to return
// r now, the operation would satisfy Definition 1, and returns the extended
// slice. This is the candidate set an eventually linearizable object may
// answer from before stabilizing: anything else would be "out of left
// field". The table must hold a pending operation by proc. On the types
// weakRule covers a reused buf and table make the call allocation-free,
// unless a set of more than weakScanMax values repeats one (a map dedups it).
func AppendWeakResponses(buf []int64, obj spec.Object, tb *history.OpTable, proc int, opts Options) ([]int64, error) {
	if err := tableOneObject(tb); err != nil {
		return buf, err
	}
	ops := tb.Ops
	k := -1
	for i := range ops {
		if ops[i].Proc == proc && ops[i].Pending() {
			k = i
			break
		}
	}
	if k < 0 {
		return buf, fmt.Errorf("check: process p%d has no pending operation", proc)
	}
	// The hypothetical response event would land at index tb.Events, so
	// every operation already invoked is a candidate member of S.
	if !opts.NoFastPath {
		from, top := len(buf), int64(math.MinInt64)
		var seen map[int64]struct{}
		known, err := weakRule(obj, ops, k, tb.Events, func(v int64) bool {
			// A value above every one appended is new, so an ascending run
			// (a fetch&inc range) is never scanned. Otherwise up to
			// weakScanMax values are scanned, which allocates nothing; past
			// that a map takes over, so that a register run writing many
			// distinct values (rw:P) pays O(W) per set, not O(W²).
			switch {
			case v > top:
			case seen != nil:
				if _, dup := seen[v]; dup {
					return true
				}
			case slices.Contains(buf[from:], v):
				return true
			case len(buf)-from >= weakScanMax:
				seen = make(map[int64]struct{}, len(ops)+1) // at most one value per candidate, and init
				for _, u := range buf[from:] {
					seen[u] = struct{}{}
				}
			}
			if seen != nil {
				seen[v] = struct{}{}
			}
			buf, top = append(buf, v), max(top, v)
			return true
		})
		if known {
			// A register set keeps first-yield order, which explorer branches
			// follow; the others are ascending, as the search gives them.
			if _, reg := obj.Type.(spec.Register); !reg {
				slices.Sort(buf[from:])
			}
			return buf, err
		}
	}
	set, err := weakResponseSet(obj, ops, k, tb.Events, opts)
	return append(buf, set...), err
}

// weakScanMax is the largest candidate set AppendWeakResponses deduplicates
// by scanning.
const weakScanMax = 16

// weakWitness decides Definition 1 for operation index k with response resp,
// whose response event index is respIdx: through weakRule where the type has
// one, stopping at the first match, and otherwise by Figure 1's line-13 test
// on k's candidates, which returns at the first witness.
func weakWitness(obj spec.Object, ops []history.Operation, k int, resp int64, respIdx int, opts Options) (bool, error) {
	if !opts.NoFastPath {
		found := false
		known, err := weakRule(obj, ops, k, respIdx, func(v int64) bool {
			found = v == resp
			return !found
		})
		if known {
			return found, err
		}
	}
	must, opt := weakCandidates(ops, k, respIdx)
	return SequentialWitness(obj, must, opt, ops[k].Op, resp, opts)
}

// weakRule is Definition 1's rule table: it yields, until yield returns
// false, the responses Definition 1 allows operation k answered at respIdx,
// in O(n) for the types with a rule (register, fetch&inc, test&set,
// consensus); values may repeat. known is false for any other type. It
// follows the package rule through weakScan: k has no response when it or a
// candidate S must hold is inapplicable.
//
//   - A register write may only be acked; a read returns a value written by a
//     candidate, or the initial value when its process has no earlier write
//     (registerResponses).
//   - A fetch&inc returns its place among its candidates (fetchIncRange).
//   - A test&set returns the state before it: the initial state when S holds
//     no other operation, which needs k's process to have none earlier, and
//     1 when S holds one, which needs some candidate.
//   - A pre-decided consensus object answers its value. Otherwise the first
//     proposal in S decides, and S may begin with any candidate, or with k
//     itself when k's process has no earlier operation.
func weakRule(obj spec.Object, ops []history.Operation, k, respIdx int, yield func(int64) bool) (known bool, err error) {
	switch obj.Type.(type) {
	case spec.Register, spec.FetchInc, spec.TestSet, spec.Consensus:
	default:
		return false, nil
	}
	init, ok := obj.Init.Int()
	if !ok {
		return true, fmt.Errorf("check: %s initial state %v is not int64", obj.Type.Name(), obj.Init)
	}
	m, c, ok := weakScan(obj.Type, ops, k, respIdx)
	if !ok {
		return true, nil
	}
	switch obj.Type.(type) {
	case spec.Register:
		registerResponses(init, ops, k, respIdx, yield)
	case spec.FetchInc:
		lo, _ := fetchIncRange(init, m, c)
		for r := range int64(c) + 1 {
			if !yield(lo + r) {
				break
			}
		}
	case spec.TestSet:
		if m == 0 && !yield(init) {
			break
		}
		if m+c > 0 {
			yield(1)
		}
	case spec.Consensus:
		if init != spec.NoValue {
			yield(init)
			break
		}
		if m == 0 && !yield(ops[k].Op.Args[0]) {
			break
		}
		for i := range ops {
			in, _ := weakRole(ops, k, i, respIdx)
			if in && applicable(obj.Type, &ops[i].Op) && !yield(ops[i].Op.Args[0]) {
				break
			}
		}
	}
	return true, nil
}

// registerResponses yields the register responses weakRule allows read or
// write k, answered at respIdx, whose mandatory candidates are applicable.
func registerResponses(init int64, ops []history.Operation, k, respIdx int, yield func(int64) bool) {
	if ops[k].Op.Method == spec.MethodWrite {
		yield(0)
		return
	}
	selfWrote := false
	for i, other := range ops {
		if i == k || other.Op.Method != spec.MethodWrite || !applicable(spec.Register{}, &other.Op) || other.Inv >= respIdx {
			continue // not a write, or invoked after the read terminated: not in S
		}
		if !yield(other.Op.Args[0]) {
			return
		}
		selfWrote = selfWrote || other.Proc == ops[k].Proc && other.Inv < ops[k].Inv
	}
	if !selfWrote {
		yield(init)
	}
}

// weakScan counts the candidates of operation k answered at respIdx
// (weakRole) that typ can apply: m that S must hold and c that it may. ok
// reports whether k and every candidate S must hold are applicable; an
// inapplicable optional candidate is dropped.
func weakScan(typ spec.Type, ops []history.Operation, k, respIdx int) (m, c int, ok bool) {
	for i := range ops {
		switch in, must := weakRole(ops, k, i, respIdx); {
		case !in:
		case !applicable(typ, &ops[i].Op):
			if must {
				return 0, 0, false
			}
		case must:
			m++
		default:
			c++
		}
	}
	return m, c, applicable(typ, &ops[k].Op)
}

// weakRole places operation i in Definition 1's test of operation k answered
// at respIdx: whether S may contain it (in), and whether S must (must: k's
// own earlier operations). Anything else invoked before respIdx is optional.
func weakRole(ops []history.Operation, k, i, respIdx int) (in, must bool) {
	switch {
	case i == k:
		return false, false
	case ops[i].Proc == ops[k].Proc && ops[i].Inv < ops[k].Inv:
		return true, true
	}
	return ops[i].Inv < respIdx, false
}

// weakCandidates lists the operations weakRole puts in S: the mandatory ones
// and the optional ones, in invocation order.
func weakCandidates(ops []history.Operation, k, respIdx int) (must, opt []spec.Op) {
	for i := range ops {
		switch in, req := weakRole(ops, k, i, respIdx); {
		case req:
			must = append(must, ops[i].Op)
		case in:
			opt = append(opt, ops[i].Op)
		}
	}
	return must, opt
}

// weakResponseSet enumerates every response the operation at index k could
// legally return at response position respIdx under Definition 1. It is the
// line-13 search over a recorder: the stand-in final operation is never
// applicable, so the search visits every arrangement of k's candidates and
// leaves the set behind.
func weakResponseSet(obj spec.Object, ops []history.Operation, k, respIdx int, opts Options) ([]int64, error) {
	must, opt := weakCandidates(ops, k, respIdx)
	rec := recorder{Type: obj.Type, final: ops[k].Op, found: make(map[int64]bool)}
	if _, err := SequentialWitness(spec.Object{Type: rec, Init: obj.Init}, must, opt, recordOp, 0, opts); err != nil {
		return nil, err
	}
	return slices.Sorted(maps.Keys(rec.found)), nil
}

// recorder is a type with one operation more than its own, recordOp: in any
// state, recordOp records every response final could give there, and is
// itself never applicable.
type recorder struct {
	spec.Type
	final spec.Op
	found map[int64]bool
}

// recordOp is recorder's stand-in operation; no type has its method.
var recordOp = spec.MakeOp("\x00record")

func (r recorder) Step(s spec.State, op spec.Op, i int) (spec.Outcome, int) {
	if op != recordOp {
		return r.Type.Step(s, op, i)
	}
	for _, out := range spec.Outcomes(r.Type, s, r.final) {
		r.found[out.Resp] = true
	}
	return spec.Outcome{}, 0
}
