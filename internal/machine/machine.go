// Package machine defines the implementation model of Section 3: an
// implementation of a shared object provides, per process, a programme that
// performs each operation by issuing actions on shared base objects.
//
// Programmes are deterministic step machines rather than goroutines so that
// the same algorithm code can be driven by a randomized scheduler (package
// sim), exhaustively model-checked (package explore), and transformed (the
// local-copy construction of Theorem 12 and the stable-configuration
// construction of Proposition 18 both rewrite implementations).
package machine

import (
	"fmt"

	"github.com/elin-go/elin/internal/spec"
)

// ActionKind distinguishes base-object invocations from final returns.
type ActionKind int

// Action kinds.
const (
	// ActInvoke performs one atomic action on a base object.
	ActInvoke ActionKind = iota + 1
	// ActReturn completes the current operation with a response.
	ActReturn
)

// Action is the next thing a process asks the runtime to do.
type Action struct {
	// Kind selects invocation or return.
	Kind ActionKind
	// Obj indexes into the implementation's Bases (ActInvoke only).
	Obj int
	// Op is the base-object operation (ActInvoke only).
	Op spec.Op
	// Ret is the implemented operation's response (ActReturn only).
	Ret int64
}

// Invoke returns an invocation action on base object obj.
func Invoke(obj int, op spec.Op) Action {
	return Action{Kind: ActInvoke, Obj: obj, Op: op}
}

// Return returns a completion action with response ret.
func Return(ret int64) Action {
	return Action{Kind: ActReturn, Ret: ret}
}

// String implements fmt.Stringer.
func (a Action) String() string {
	if a.Kind == ActInvoke {
		return fmt.Sprintf("invoke obj%d.%s", a.Obj, a.Op)
	}
	return fmt.Sprintf("return %d", a.Ret)
}

// Process is one process's programme: a deterministic, resumable step
// machine. The runtime drives it as follows:
//
//	p.Begin(op)            // start an operation (process must be idle)
//	act := p.Step(0)       // first step; the argument is ignored
//	for act.Kind == ActInvoke {
//	    resp := ...        // perform the base action atomically
//	    act = p.Step(resp) // resume with the base object's response
//	}
//	// act.Ret is the operation's response; the process is idle again.
//
// Processes may keep local state across operations (the paper's programmes
// are arbitrary Turing machines; e.g. Figure 1 keeps the counter c_i and
// state q_i between operations). Step must be deterministic: identical
// response sequences yield identical actions.
type Process interface {
	// Begin starts performing op. It must only be called when the process
	// is idle (before any Step, or after a Step returned ActReturn).
	Begin(op spec.Op)
	// Step consumes the response to the previous ActInvoke (the first call
	// after Begin receives a dummy 0) and returns the next action.
	Step(resp int64) Action
	// CloneInto returns a deep copy of the process, used by the model
	// checker to branch executions and by the Proposition 18 construction
	// to capture local variables at a configuration. A nil dst allocates
	// the copy. Otherwise dst is a programme of the same concrete type that
	// nothing else references: it is overwritten (reusing its slices and
	// the inner programmes of wrappers) and returned, so a runtime that
	// recycles displaced programmes copies without allocating.
	CloneInto(dst Process) Process
}

// Reuse is CloneInto's destination: a new T when dst is nil, else dst,
// which must be a *T (anything else is a broken contract and panics).
func Reuse[T any](dst Process) *T {
	if dst == nil {
		return new(T)
	}
	return any(dst).(*T)
}

// Base describes one shared base object an implementation uses.
type Base struct {
	// Name is the object's name in recorded base-level histories.
	Name string
	// Obj is the object's sequential specification and initial state.
	Obj spec.Object
	// Eventually marks the object as eventually linearizable: before its
	// stabilization point it may answer with any response permitted by
	// weak consistency (Definition 1). If false the object is
	// linearizable (atomic).
	Eventually bool
}

// Impl is an implementation of a shared object from base objects.
type Impl interface {
	// Name identifies the implementation; it is also used as the
	// implemented object's name in recorded histories.
	Name() string
	// Spec returns the implemented object's sequential specification,
	// against which recorded histories are checked.
	Spec() spec.Object
	// Bases lists the shared base objects. The slice is fresh on each
	// call; runtimes instantiate live objects from it.
	Bases() []Base
	// NewProcess returns the programme for process p of n. Implementations
	// must tolerate any 0 <= p < n.
	NewProcess(p, n int) Process
}

// Validate performs basic sanity checks on an implementation: base names
// are unique and non-empty, and NewProcess returns distinct machines.
func Validate(impl Impl, n int) error {
	if impl.Name() == "" {
		return fmt.Errorf("machine: implementation has empty name")
	}
	seen := make(map[string]bool)
	for i, b := range impl.Bases() {
		if b.Name == "" {
			return fmt.Errorf("machine: %s base %d has empty name", impl.Name(), i)
		}
		if seen[b.Name] {
			return fmt.Errorf("machine: %s has duplicate base name %q", impl.Name(), b.Name)
		}
		seen[b.Name] = true
		if b.Obj.Type == nil {
			return fmt.Errorf("machine: %s base %q has nil type", impl.Name(), b.Name)
		}
	}
	for p := 0; p < n; p++ {
		if impl.NewProcess(p, n) == nil {
			return fmt.Errorf("machine: %s NewProcess(%d,%d) returned nil", impl.Name(), p, n)
		}
	}
	return nil
}
