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
// object than the engine supports (63).
var ErrTooLarge = errors.New("check: too many operations on one object (max 63)")

// DefaultBudget is the node budget used when Options.Budget is zero.
const DefaultBudget = 4 << 20

// MaxOpsPerObject is the largest number of operations on a single object the
// generic engine accepts (operation sets are tracked in a 64-bit mask).
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
		legal, err := legalOneObject(obj, h.ByObject(name))
		if err != nil {
			return false, err
		}
		if !legal {
			return false, nil
		}
	}
	return true, nil
}

// legalOneObject checks legality of a single-object sequential history. For
// nondeterministic types it searches over transition choices.
func legalOneObject(obj spec.Object, h *history.History) (bool, error) {
	ops := h.Operations()
	// A trailing pending invocation imposes no constraint on legality.
	seq := make([]history.Operation, 0, len(ops))
	for _, op := range ops {
		if !op.Pending() {
			seq = append(seq, op)
		}
	}
	states := []spec.State{obj.Init}
	for i, op := range seq {
		next := make(map[spec.State]bool)
		for _, s := range states {
			for _, out := range obj.Type.Step(s, op.Op) {
				if out.Resp == op.Resp {
					next[out.Next] = true
				}
			}
		}
		if len(next) == 0 {
			return false, nil
		}
		states = states[:0]
		for s := range next {
			states = append(states, s)
		}
		_ = i
	}
	return true, nil
}
