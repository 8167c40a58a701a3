// Package check implements the decision procedures for the consistency
// conditions of the paper: legality of sequential histories,
// linearizability, t-linearizability (Definition 2), weak consistency
// (Definition 1), and the eventual-linearizability monitor that observes
// MinT across growing prefixes (the finite-data proxy for Definitions 3/4).
//
// The generic engine is one Wing&Gong-style depth-first search with
// memoization, generalized so that the first t events of the history impose
// neither real-time nor response constraints. Other questions are inputs to
// it (linearize.go): Figure 1's line-13 test and Definition 1's test are a
// sequential question laid out as a table, Definition 1's response set that
// question over a recording type, the multi-object check a product type.
// Checking is exponential in the number of overlapping operations in the
// worst case; all entry points take a node budget and return ErrBudget when
// it is exhausted. For fetch&increment histories a polynomial-time checker
// derived from the combinatorial argument in the proof of Lemma 17 is
// provided (see fik.go) and is used automatically where applicable.
//
// An operation the type cannot apply is in no legal sequential history, so
// every entry point answers it as the search does: a completed one makes the
// answer false; a pending one, or an optional candidate of Definition 1's or
// line 13's test, is dropped; an inapplicable operation k has no legal
// response. The type-specialised paths ask applicable.
package check

import (
	"errors"
	"fmt"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// ErrBudget is returned when a search exceeds its node budget.
var ErrBudget = errors.New("check: search budget exhausted")

// ErrTooLarge is returned when a history has more operations on a single
// object than the engine supports (63) at t > 0 — at t = 0, and for the path
// checker, more open at once.
var ErrTooLarge = errors.New("check: too many operations on one object (max 63)")

// DefaultBudget is the node budget used when Options.Budget is zero.
const DefaultBudget = 4 << 20

// MaxOpsPerObject is the largest number of operations on a single object the
// generic engine accepts, and of operations open at once the path checker
// accepts (operation sets are tracked in a 64-bit mask).
const MaxOpsPerObject = 63

// Options tunes the search.
type Options struct {
	// Budget caps the number of DFS node expansions (0 means
	// DefaultBudget). When exceeded, checks return ErrBudget.
	Budget int64
	// NoFastPath disables type-specialized checkers; used by
	// cross-validation tests.
	NoFastPath bool
	// NoMemo disables the failure-memoization table of the generic
	// engines; used by the ablation benchmarks to quantify what the
	// memoization buys.
	NoMemo bool
}

// applicable decides Step's applicability, in any int64 state, for the four
// types with type-specialised paths (register, fetch&inc, test&set,
// consensus) from the method, the argument count and a non-negative proposal:
// no path asks Step, whose Next boxes a rebased counter.
func applicable(typ spec.Type, op *spec.Op) bool {
	switch typ.(type) {
	case spec.Register:
		return op.Method == spec.MethodRead && op.NArgs == 0 || op.Method == spec.MethodWrite && op.NArgs == 1
	case spec.FetchInc:
		return op.Method == spec.MethodFetchInc && op.NArgs == 0
	case spec.TestSet:
		return op.Method == spec.MethodTestSet && op.NArgs == 0
	case spec.Consensus:
		return op.Method == spec.MethodPropose && op.NArgs == 1 && op.Args[0] >= 0
	}
	return false
}

func (o Options) budget() int64 {
	if o.Budget <= 0 {
		return DefaultBudget
	}
	return o.Budget
}

// Legal reports whether a sequential history is legal with respect to the
// given object specifications (one entry per object name appearing in the
// history): for each object, the operations in order must follow some path
// through the type's transition relation from the initial state.
func Legal(objs map[string]spec.Object, h *history.History) (bool, error) {
	if !h.Sequential() {
		return false, fmt.Errorf("check: history is not sequential")
	}
	for _, name := range h.Objects() {
		obj, ok := objs[name]
		if !ok {
			return false, fmt.Errorf("check: no specification for object %q", name)
		}
		legal, err := pathLinearizable(obj, h.ByObject(name), Options{})
		if err != nil {
			return false, err
		}
		if !legal {
			return false, nil
		}
	}
	return true, nil
}

// pathLinearizable decides linearizability of a single-object history on the
// path checker, whose only cap is 63 operations open at once. On a
// sequential history its frontier is the set of states the operations can
// reach, and a trailing pending invocation stays optional.
func pathLinearizable(obj spec.Object, h *history.History, opts Options) (bool, error) {
	pc := NewPathChecker(obj, opts)
	for i := 0; i < h.Len(); i++ {
		if err := pc.Push(h.Event(i)); err != nil {
			return false, err
		}
	}
	return pc.Linearizable(), nil
}
