// Package trivial implements the decision procedure behind Definition 13
// and Proposition 14: a deterministic type T is trivial iff there is a
// computable function r mapping each initial state q0 and operation op to a
// response that is correct in every state reachable from q0 — equivalently
// (for deterministic types), iff every operation returns the same response
// in every reachable state. Proposition 14 then says exactly the trivial
// types have linearizable obstruction-free implementations from eventually
// linearizable objects (for two or more processes).
package trivial

import (
	"fmt"

	"github.com/elin-go/elin/internal/spec"
)

// Result reports a triviality decision.
type Result struct {
	// Trivial reports whether the type is trivial per Definition 13.
	Trivial bool
	// Responses is the function r(q0, ·) witnessing triviality (nil when
	// not trivial).
	Responses map[spec.Op]int64
	// WitnessOp is an operation with state-dependent responses (zero when
	// trivial).
	WitnessOp spec.Op
	// WitnessStates are two reachable states in which WitnessOp responds
	// differently (or in one of which it is inapplicable).
	WitnessStates []spec.State
}

// Decide decides triviality of a deterministic type with enumerable
// operations, exploring at most maxStates reachable states.
func Decide(t spec.Type, maxStates int) (Result, error) {
	if !t.Deterministic() {
		return Result{}, fmt.Errorf("trivial: %s is nondeterministic; Definition 13 is stated for deterministic types", t.Name())
	}
	enum, ok := t.(spec.OpEnumerator)
	if !ok {
		return Result{}, fmt.Errorf("trivial: %s does not enumerate operations", t.Name())
	}
	states, err := spec.Reachable(t, maxStates)
	if err != nil {
		return Result{}, fmt.Errorf("trivial: %w", err)
	}
	res := Result{Trivial: true, Responses: make(map[spec.Op]int64)}
	for _, op := range enum.EnumOps() {
		first := true
		var resp int64
		var firstState spec.State
		for _, s := range states {
			out, n := t.Step(s, op, 0)
			if n == 0 {
				// Inapplicable somewhere: no response is correct in every
				// reachable state.
				return nonTrivial(op, firstState, s), nil
			}
			if first {
				first = false
				resp = out.Resp
				firstState = s
				continue
			}
			if out.Resp != resp {
				return nonTrivial(op, firstState, s), nil
			}
		}
		res.Responses[op] = resp
	}
	return res, nil
}

func nonTrivial(op spec.Op, a, b spec.State) Result {
	return Result{
		Trivial:       false,
		WitnessOp:     op,
		WitnessStates: []spec.State{a, b},
	}
}
