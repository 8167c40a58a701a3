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
// and the history is trivially t-linearizable (consensus is total). A
// pre-decided object pins v* to its decided value. An operation consensus
// cannot apply fails the history when completed and is dropped when pending
// (the package rule).
func consensusTLinearizable(obj spec.Object, ops []history.Operation, t int) (bool, error) {
	decided, ok := obj.Init.(int64)
	if !ok {
		return false, fmt.Errorf("check: consensus initial state %v is not int64", obj.Init)
	}
	for _, op := range ops {
		if !op.Pending() && !applicable(obj.Type, &op.Op) {
			return false, nil
		}
	}
	vstar := decided
	anyConstrained := false
	for _, op := range ops {
		if op.Res < t {
			continue
		}
		if !anyConstrained && decided == spec.NoValue {
			vstar = op.Resp
		}
		anyConstrained = true
		if op.Resp != vstar {
			return false, nil // two suffix answers disagree, or one is not the decided value
		}
	}
	if !anyConstrained || decided != spec.NoValue {
		return true, nil
	}
	// Find a leader: an applicable operation proposing v* (so v* is no ⊥)
	// with no suffix real-time predecessor, that is, invoked before the first
	// suffix response (pred requires res_i >= t, inv_j >= t, res_i < inv_j).
	firstSuffixRes := -1
	for _, op := range ops {
		if op.Res >= t && (firstSuffixRes < 0 || op.Res < firstSuffixRes) {
			firstSuffixRes = op.Res
		}
	}
	for _, op := range ops {
		if applicable(obj.Type, &op.Op) && op.Op.Args[0] == vstar && op.Inv < firstSuffixRes {
			return true, nil
		}
	}
	return false, nil
}
