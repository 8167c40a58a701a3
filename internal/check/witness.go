package check

import (
	"github.com/elin-go/elin/internal/spec"
)

// SequentialWitness reports whether there is a legal sequential execution,
// from obj's initial state, that consists of all operations in must, any
// subset of opt, and ends with final returning resp. This is exactly the
// test on line 13 of Figure 1 (the announce/verify wrapper of
// Proposition 11): must is the verifier's own announced operations, opt the
// operations announced by others, final the operation being completed. It is
// also Definition 1's test of one operation (weakWitness). The generic path
// is the one search laid out by resetSeq, and returns at the first witness.
func SequentialWitness(obj spec.Object, must, opt []spec.Op, final spec.Op, resp int64, opts Options) (bool, error) {
	if !opts.NoFastPath {
		if _, ok := obj.Type.(spec.FetchInc); ok {
			return fetchIncWitness(obj, must, opt, final, resp)
		}
	}
	if len(must)+len(opt) > MaxOpsPerObject {
		return false, ErrTooLarge
	}
	var pr tlinProblem
	pr.resetSeq(obj, must, opt, final, resp, opts)
	return pr.solve()
}

// fetchIncWitness: only the counts of fetch&incs matter (fetchIncRange). A
// mandatory or final operation fetch&inc cannot apply leaves no witness; an
// optional one is dropped.
func fetchIncWitness(obj spec.Object, must, opt []spec.Op, final spec.Op, resp int64) (bool, error) {
	init, ok := obj.Init.(int64)
	if !ok || !applicable(obj.Type, &final) {
		return false, nil
	}
	for _, op := range must {
		if !applicable(obj.Type, &op) {
			return false, nil
		}
	}
	c := 0
	for _, op := range opt {
		if applicable(obj.Type, &op) {
			c++
		}
	}
	lo, hi := fetchIncRange(init, len(must), c)
	return lo <= resp && resp <= hi, nil
}

// fetchIncRange is the one fetch&inc rule behind both Figure 1's line 13 and
// Definition 1: a fetch&inc that follows all of m mandatory fetch&incs and
// any of c optional ones returns r iff exactly r - init of them precede it,
// so r ranges over [init+m, init+m+c].
func fetchIncRange(init int64, m, c int) (lo, hi int64) {
	return init + int64(m), init + int64(m+c)
}
