// Package spec implements sequential specifications of shared-object types
// as defined in Section 3 of Guerraoui & Ruppert, "A Paradox of Eventual
// Linearizability in Shared Memory" (PODC 2014).
//
// A type is a tuple (Q, Q0, INV, RES, delta): a set of states, a set of
// initial states, sets of operation invocations and responses, and a
// transition relation delta ⊆ Q × INV × RES × Q. The paper assumes
// transition relations are Turing-computable; here they are Go functions.
// All concrete types in this package have finite non-determinism: for each
// state and operation there are finitely many (response, next-state) pairs.
//
// Conventions used throughout the module:
//
//   - Operation names include their arguments (as in the paper); an Op value
//     is a method name plus up to two int64 arguments.
//   - Responses are int64 values. Operations with "ack"-style responses
//     (e.g. register writes) return 0 by convention.
//   - A state is a 16-byte comparable value (see State): an int64, or a
//     canonical string for composite states.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"unique"
)

// State is an immutable snapshot of an object's abstract state: an int64,
// or, for composite states (queue contents, log entries, register cells), a
// canonical string held as an interned handle. It is a 16-byte comparable
// value, so a checker memo keys on it by value and an integer state is
// stored and stepped without allocating. The zero State is the integer 0.
type State struct {
	n   int64
	str unique.Handle[string] // zero for an integer state
}

// IntState returns the integer state v.
func IntState(v int64) State { return State{n: v} }

// StringState returns the string state v; equal strings are equal states.
func StringState(v string) State { return State{str: unique.Make(v)} }

// Int returns the state's integer; ok is false for a string state.
func (s State) Int() (v int64, ok bool) { return s.n, s.str == unique.Handle[string]{} }

// Str returns the state's string; ok is false for an integer state.
func (s State) Str() (v string, ok bool) {
	if s.str == (unique.Handle[string]{}) {
		return "", false
	}
	return s.str.Value(), true
}

// String prints the integer in decimal and the string as it is.
func (s State) String() string {
	if v, ok := s.Str(); ok {
		return v
	}
	return strconv.FormatInt(s.n, 10)
}

// Op is an operation invocation: a method name together with its arguments.
// As in the paper, the "name" of an operation includes all of its arguments,
// so two Op values are the same invocation if and only if they are equal.
type Op struct {
	// Method is the operation's method name, e.g. "read", "write",
	// "fetchinc", "propose", "cas".
	Method string
	// Args holds up to two integer arguments; entries beyond NArgs are 0.
	Args [2]int64
	// NArgs is the number of meaningful entries in Args.
	NArgs int
}

// MakeOp returns an operation with no arguments.
func MakeOp(method string) Op { return Op{Method: method} }

// MakeOp1 returns an operation with one argument.
func MakeOp1(method string, a int64) Op {
	return Op{Method: method, Args: [2]int64{a, 0}, NArgs: 1}
}

// MakeOp2 returns an operation with two arguments.
func MakeOp2(method string, a, b int64) Op {
	return Op{Method: method, Args: [2]int64{a, b}, NArgs: 2}
}

// String renders the operation in the conventional "method(args)" form.
func (o Op) String() string {
	if o.NArgs == 0 {
		return o.Method
	}
	parts := make([]string, o.NArgs)
	for i := 0; i < o.NArgs; i++ {
		parts[i] = strconv.FormatInt(o.Args[i], 10)
	}
	return o.Method + "(" + strings.Join(parts, ",") + ")"
}

// ParseOp parses the output of Op.String: "method" or "method(a)" or
// "method(a,b)".
func ParseOp(s string) (Op, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if s == "" {
			return Op{}, fmt.Errorf("parse op: empty string")
		}
		return MakeOp(s), nil
	}
	if !strings.HasSuffix(s, ")") || open == 0 {
		return Op{}, fmt.Errorf("parse op %q: malformed argument list", s)
	}
	method := s[:open]
	argstr := s[open+1 : len(s)-1]
	if argstr == "" {
		return MakeOp(method), nil
	}
	parts := strings.Split(argstr, ",")
	if len(parts) > 2 {
		return Op{}, fmt.Errorf("parse op %q: more than two arguments", s)
	}
	op := Op{Method: method, NArgs: len(parts)}
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("parse op %q: argument %d: %w", s, i, err)
		}
		op.Args[i] = v
	}
	return op, nil
}

// Outcome is one (response, next-state) pair permitted by a transition
// relation for a given (state, operation).
type Outcome struct {
	Resp int64
	Next State
}

// Type is a sequential object type. Implementations must be pure functions
// of their arguments, so repeated calls agree, and every returned outcome's
// Next state must be a valid State (immutable and comparable).
type Type interface {
	// Name returns a short identifier for the type, e.g. "register".
	Name() string
	// Init returns the canonical initial state q0.
	Init() State
	// Step returns outcome i of the n (response, next-state) pairs delta
	// permits when op is applied in state s, together with n; n = 0 means
	// the operation is not applicable in s. n is the same for every i < n.
	// Callers ask for i = 0 first and never for i ≥ n, so a deterministic
	// type ignores i.
	Step(s State, op Op, i int) (Outcome, int)
	// Deterministic reports whether every (state, op) pair admits at most
	// one outcome: Step's n is never above 1.
	Deterministic() bool
}

// Outcomes returns every outcome of op in state s, in Step's index order;
// it is nil when op is not applicable.
func Outcomes(t Type, s State, op Op) []Outcome {
	var outs []Outcome
	for i, n := 0, 1; i < n; i++ {
		var out Outcome
		if out, n = t.Step(s, op, i); i >= n {
			break
		}
		outs = append(outs, out)
	}
	return outs
}

// OpEnumerator is implemented by types whose (restricted) operation set can
// be enumerated. Enumerability enables exhaustive constructions such as the
// triviality decision procedure of Proposition 14 and random workload
// generation.
type OpEnumerator interface {
	// EnumOps returns a finite, representative operation set.
	EnumOps() []Op
}

// Reachable returns all states reachable from init via enumerated
// operations, bounded by maxStates.
func Reachable(t Type, maxStates int) ([]State, error) {
	enum, ok := t.(OpEnumerator)
	if !ok {
		return nil, fmt.Errorf("type %s does not enumerate operations", t.Name())
	}
	ops := enum.EnumOps()
	seen := map[State]bool{t.Init(): true}
	order := []State{t.Init()}
	for i := 0; i < len(order); i++ {
		if len(order) > maxStates {
			return nil, fmt.Errorf("type %s: state bound %d exceeded", t.Name(), maxStates)
		}
		for _, op := range ops {
			for _, o := range Outcomes(t, order[i], op) {
				if !seen[o.Next] {
					seen[o.Next] = true
					order = append(order, o.Next)
				}
			}
		}
	}
	return order, nil
}
