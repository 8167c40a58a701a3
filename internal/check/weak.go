package check

import (
	"fmt"
	"maps"
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

// WeakResponses returns the set of responses r such that, were process
// proc's pending operation on the (single-object) history h to return r
// now, the operation would satisfy Definition 1. This is the candidate set
// an eventually linearizable object may answer from before stabilizing:
// anything else would be "out of left field". The history must contain a
// pending operation by proc.
func WeakResponses(obj spec.Object, h *history.History, proc int, opts Options) ([]int64, error) {
	if err := oneObject(h); err != nil {
		return nil, err
	}
	ops := h.Operations()
	k := -1
	for i, op := range ops {
		if op.Proc == proc && op.Pending() {
			k = i
			break
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("check: process p%d has no pending operation", proc)
	}
	// The hypothetical response event would land at index h.Len(), so every
	// operation already invoked is a candidate member of S.
	if !opts.NoFastPath {
		switch obj.Type.(type) {
		case spec.Register:
			return weakRegisterResponses(obj, ops, k, h.Len())
		case spec.FetchInc:
			return weakFetchIncResponses(obj, ops, k, h.Len())
		}
	}
	return weakResponseSet(obj, ops, k, h.Len(), opts)
}

// weakRegisterResponses computes the Definition 1 candidate set for a
// register in linear time (registerResponses, each value once).
func weakRegisterResponses(obj spec.Object, ops []history.Operation, k, respIdx int) ([]int64, error) {
	var out []int64
	seen := make(map[int64]bool)
	err := registerResponses(obj, ops, k, respIdx, func(v int64) bool {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out, err
}

// weakFetchIncResponses computes the Definition 1 candidate set for a
// fetch&increment in linear time: the contiguous range weakFetchIncRange.
func weakFetchIncResponses(obj spec.Object, ops []history.Operation, k, respIdx int) ([]int64, error) {
	lo, hi, err := weakFetchIncRange(obj, ops, k, respIdx)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, hi-lo+1)
	for r := lo; r <= hi; r++ {
		out = append(out, r)
	}
	return out, nil
}

// weakWitness decides Definition 1 for operation index k with response resp,
// whose response event index is respIdx. Fast paths exist for registers and
// fetch&increment; the generic path is Figure 1's line-13 test on k's
// candidates, which returns at the first witness.
func weakWitness(obj spec.Object, ops []history.Operation, k int, resp int64, respIdx int, opts Options) (bool, error) {
	if !opts.NoFastPath {
		switch obj.Type.(type) {
		case spec.Register:
			return weakRegister(obj, ops, k, resp, respIdx)
		case spec.FetchInc:
			lo, hi, err := weakFetchIncRange(obj, ops, k, respIdx)
			return err == nil && lo <= resp && resp <= hi, err
		}
	}
	must, opt := weakCandidates(ops, k, respIdx)
	return SequentialWitness(obj, must, opt, ops[k].Op, resp, opts)
}

// weakRegister decides Definition 1 for a register operation in linear time
// (registerResponses), stopping at the first value equal to resp.
func weakRegister(obj spec.Object, ops []history.Operation, k int, resp int64, respIdx int) (bool, error) {
	found := false
	err := registerResponses(obj, ops, k, respIdx, func(v int64) bool {
		found = v == resp
		return !found
	})
	return found, err
}

// registerResponses yields what Definition 1 lets register operation k,
// answered at respIdx, return until yield returns false; values may repeat.
// A write may only be acked. A read may return any value written by an
// operation invoked before respIdx, or the initial value provided k's process
// has no earlier writes (its own writes must appear in S before the read).
func registerResponses(obj spec.Object, ops []history.Operation, k, respIdx int, yield func(int64) bool) error {
	init, ok := obj.Init.(int64)
	if !ok {
		return fmt.Errorf("check: register initial state %v is not int64", obj.Init)
	}
	switch op := ops[k]; op.Op.Method {
	case spec.MethodWrite:
		yield(0)
	case spec.MethodRead:
		selfWrote := false
		for i, other := range ops {
			if i == k || other.Op.Method != spec.MethodWrite || other.Inv >= respIdx {
				continue // not a write, or invoked after the read terminated: not in S
			}
			if other.Op.NArgs == 1 && !yield(other.Op.Args[0]) {
				return nil
			}
			selfWrote = selfWrote || other.Proc == op.Proc && other.Inv < op.Inv
		}
		if !selfWrote {
			yield(init)
		}
	default:
		return fmt.Errorf("check: unexpected register method %q", op.Op.Method)
	}
	return nil
}

// weakFetchIncRange is fetchIncRange for operation k answered at respIdx,
// counting its mandatory and optional candidates (weakRole) without listing
// them.
func weakFetchIncRange(obj spec.Object, ops []history.Operation, k, respIdx int) (lo, hi int64, err error) {
	init, ok := obj.Init.(int64)
	if !ok {
		return 0, 0, fmt.Errorf("check: fetch&inc initial state %v is not int64", obj.Init)
	}
	m, c := 0, 0
	for i := range ops {
		switch in, must := weakRole(ops, k, i, respIdx); {
		case must:
			m++
		case in:
			c++
		}
	}
	lo, hi = fetchIncRange(init, m, c)
	return lo, hi, nil
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

func (r recorder) Step(s spec.State, op spec.Op) []spec.Outcome {
	if op != recordOp {
		return r.Type.Step(s, op)
	}
	for _, out := range r.Type.Step(s, r.final) {
		r.found[out.Resp] = true
	}
	return nil
}
