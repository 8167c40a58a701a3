package check

import (
	"fmt"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// consensusTLinearizable decides t-linearizability of a consensus history
// in polynomial time. In any legal sequential consensus history every
// operation returns the first operation's argument, so a t-linearization
// exists iff:
//
//   - every operation answered in the suffix (after event t) returns one
//     common value v*, and
//   - some operation with argument v* can be linearized first: it has no
//     real-time predecessor among suffix-answered operations. Prefix
//     responses are reassigned freely and the remaining operations follow
//     in any order extending the (acyclic) real-time order.
//
// If no operation is answered in the suffix, any invoked operation may lead
// and the history is trivially t-linearizable (consensus is total).
func consensusTLinearizable(obj spec.Object, ops []history.Operation, t int) (bool, error) {
	if obj.Init != spec.NoValue {
		// A pre-decided consensus object pins v* to the decided value.
		return consensusPreDecided(obj, ops, t)
	}
	for _, op := range ops {
		if op.Op.Method != spec.MethodPropose || op.Op.NArgs != 1 || op.Op.Args[0] < 0 {
			return false, fmt.Errorf("check: non-propose operation %s in consensus history", op.Op)
		}
	}
	vstar := spec.NoValue
	anyConstrained := false
	for _, op := range ops {
		if op.Res < t {
			continue
		}
		if !anyConstrained {
			anyConstrained = true
			vstar = op.Resp
			continue
		}
		if op.Resp != vstar {
			return false, nil // two suffix answers disagree
		}
	}
	if !anyConstrained {
		return true, nil
	}
	if vstar < 0 {
		return false, nil // ⊥ or negative is never a legal consensus response
	}
	// Find a leader: an operation proposing v* with no suffix real-time
	// predecessor (pred requires res_i >= t, inv_j >= t, res_i < inv_j; an
	// op invoked in the prefix has no predecessors by definition).
	firstSuffixRes := -1
	for _, op := range ops {
		if op.Res >= t && (firstSuffixRes < 0 || op.Res < firstSuffixRes) {
			firstSuffixRes = op.Res
		}
	}
	for _, op := range ops {
		if op.Op.Args[0] != vstar {
			continue
		}
		if op.Inv < t || op.Inv < firstSuffixRes {
			// No suffix-answered operation completes before op's
			// invocation, so op can be linearized first.
			return true, nil
		}
	}
	return false, nil
}

// consensusPreDecided handles objects whose initial state is already a
// decided value d: every operation must return d, and real-time order is
// irrelevant beyond that (all responses identical).
func consensusPreDecided(obj spec.Object, ops []history.Operation, t int) (bool, error) {
	d, ok := obj.Init.(int64)
	if !ok {
		return false, fmt.Errorf("check: consensus initial state %v is not int64", obj.Init)
	}
	for _, op := range ops {
		if op.Res >= t && op.Resp != d {
			return false, nil
		}
	}
	return true, nil
}
