// Package base provides live base-object instances for executions: atomic
// (linearizable) objects, and eventually linearizable objects whose
// pre-stabilization responses range over exactly the set permitted by weak
// consistency (Definition 1) — the paper's "not out of left field"
// constraint — while behaving atomically after stabilization.
package base

import (
	"fmt"
	"slices"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// Object is a live base object in an execution. Each base-object action is
// atomic: the runtime asks for the permitted responses (AppendCandidates)
// and then commits one of them.
type Object interface {
	// Name returns the object's name for base-level histories.
	Name() string
	// AppendCandidates appends to buf the responses the object may give to
	// op invoked by proc in the current state and returns the extended
	// slice; callers pass a reused buffer, so a linearizable object
	// answers without allocating. The first appended element is always
	// the "true" response — the one a linearizable object would give.
	// Linearizable objects append exactly one candidate. On error buf's
	// contents past its original length are unspecified.
	AppendCandidates(buf []int64, proc int, op spec.Op) ([]int64, error)
	// Commit applies op by proc with the chosen response, which must be
	// one of AppendCandidates' values.
	Commit(proc int, op spec.Op, resp int64) error
	// State returns the object's current abstract state (for the
	// Proposition 18 configuration capture). For eventually linearizable
	// objects this is the state reached by applying all committed
	// operations in commit order.
	State() spec.State
	// Steps returns the number of committed actions.
	Steps() int
	// Clone returns a deep copy (used by the model checker to branch).
	Clone() Object
	// Snapshot captures the object's state in a small value record.
	// Together with Restore it is the undo hook of the in-place exploration
	// engine: Snapshot before a Commit, Restore to revert it. Snapshots are
	// plain values — taking one performs no heap allocation.
	Snapshot() Snapshot
	// Restore reverts the object to a previously captured Snapshot. The
	// snapshot must have been taken on this object, and only undo in LIFO
	// order is supported (restoring an older snapshot after newer commits
	// is permitted; restoring a newer one after an older Restore is not).
	Restore(Snapshot)
	// AppendFingerprint appends a canonical encoding of everything that
	// determines the object's future behaviour (state, step count and, for
	// eventually linearizable objects, the committed action log) to b.
	AppendFingerprint(b []byte) []byte
}

// Snapshot is a compact undo record for one base object. State and Steps
// cover both object kinds; LogLen is meaningful for Eventual objects only.
type Snapshot struct {
	// State is the abstract state at capture time.
	State spec.State
	// Steps is the committed-action count at capture time.
	Steps int
	// LogLen is the committed-log length at capture time (Eventual only).
	LogLen int
}

// ----------------------------------------------------------------------------
// Atomic objects.

// Atomic is a linearizable base object over a deterministic type.
type Atomic struct {
	name  string
	typ   spec.Type
	state spec.State
	steps int
}

var _ Object = (*Atomic)(nil)

// NewAtomic returns a linearizable instance of obj. The type must be
// deterministic (all of the paper's base objects are).
func NewAtomic(name string, obj spec.Object) (*Atomic, error) {
	if !obj.Type.Deterministic() {
		return nil, fmt.Errorf("base: atomic object %q requires a deterministic type, %s is not",
			name, obj.Type.Name())
	}
	return &Atomic{name: name, typ: obj.Type, state: obj.Init}, nil
}

// Name implements Object.
func (a *Atomic) Name() string { return a.name }

// AppendCandidates implements Object: the unique legal response.
func (a *Atomic) AppendCandidates(buf []int64, proc int, op spec.Op) ([]int64, error) {
	out, n := a.typ.Step(a.state, op, 0)
	if n == 0 {
		return buf, fmt.Errorf("base: %s (%s) rejects %s in state %v", a.name, a.typ.Name(), op, a.state)
	}
	return append(buf, out.Resp), nil
}

// Commit implements Object.
func (a *Atomic) Commit(proc int, op spec.Op, resp int64) error {
	out, n := a.typ.Step(a.state, op, 0)
	if n == 0 {
		return fmt.Errorf("base: %s (%s) rejects %s in state %v", a.name, a.typ.Name(), op, a.state)
	}
	if out.Resp != resp {
		return fmt.Errorf("base: %s commit of %s with response %d, want %d", a.name, op, resp, out.Resp)
	}
	a.state = out.Next
	a.steps++
	return nil
}

// State implements Object.
func (a *Atomic) State() spec.State { return a.state }

// Steps implements Object.
func (a *Atomic) Steps() int { return a.steps }

// Clone implements Object.
func (a *Atomic) Clone() Object {
	cp := *a
	return &cp
}

// Snapshot implements Object.
func (a *Atomic) Snapshot() Snapshot {
	return Snapshot{State: a.state, Steps: a.steps}
}

// Restore implements Object.
func (a *Atomic) Restore(s Snapshot) {
	a.state = s.State
	a.steps = s.Steps
}

// AppendFingerprint implements Object.
func (a *Atomic) AppendFingerprint(b []byte) []byte {
	b, ok := spec.AppendFPState(b, a.state)
	if !ok {
		// Unsupported state kinds cannot occur for the concrete types in
		// spec; fall back to a marker so fingerprints stay deterministic.
		b = append(b, '?')
	}
	return spec.AppendFPInt(b, int64(a.steps))
}

// ----------------------------------------------------------------------------
// Stabilization policies.

// Policy decides when an eventually linearizable object stabilizes. The
// paper's definition allows the stabilization point to differ from
// execution to execution (and that freedom matters: the proof of
// Proposition 18 must work without a uniform bound), so policies are
// per-instance and may be arbitrary functions of the action count.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Stabilized reports whether the object behaves atomically from its
	// k-th committed action (0-based) onward.
	Stabilized(k int) bool
}

// Window stabilizes after a fixed number of committed actions.
type Window struct {
	// K is the number of pre-stabilization actions.
	K int
}

// Name implements Policy.
func (w Window) Name() string { return fmt.Sprintf("window(%d)", w.K) }

// Stabilized implements Policy.
func (w Window) Stabilized(k int) bool { return k >= w.K }

// Never does not stabilize within any horizon. Runs under Never model the
// pre-stabilization regime only; an implementation built over Never objects
// must still be weakly consistent.
type Never struct{}

// Name implements Policy.
func (Never) Name() string { return "never" }

// Stabilized implements Policy.
func (Never) Stabilized(int) bool { return false }

// Immediate is a Window of zero: the object is atomic from the start.
// Eventually linearizable objects may behave linearizably; Immediate is the
// degenerate adversary.
func Immediate() Policy { return Window{K: 0} }

// ----------------------------------------------------------------------------
// Eventually linearizable objects.

// Eventual wraps a deterministic type as an eventually linearizable object.
// Mutations always apply in commit order (so the object has a well-defined
// "true" state), but before the policy's stabilization point the response
// offered to each action ranges over the full weak-consistency candidate
// set of Definition 1 computed against the object's own action history.
// After stabilization only the true response is offered; the resulting
// complete history is then t-linearizable with t at most the stabilization
// index, and weakly consistent throughout — i.e. eventually linearizable.
type Eventual struct {
	name   string
	typ    spec.Type
	obj    spec.Object
	state  spec.State
	steps  int
	policy Policy
	// log records committed (proc, op) pairs as a sequential history; weak
	// consistency candidates are computed against it. Responses recorded
	// are the true responses (Definition 1 ignores them).
	log *history.History
	// tb is the operation table of log and a pending invocation, refilled
	// for every candidate set; its buffers are reused.
	tb   history.OpTable
	opts check.Options
}

var _ Object = (*Eventual)(nil)

// NewEventual returns an eventually linearizable instance of obj governed
// by the given stabilization policy.
func NewEventual(name string, obj spec.Object, policy Policy, opts check.Options) (*Eventual, error) {
	if !obj.Type.Deterministic() {
		return nil, fmt.Errorf("base: eventual object %q requires a deterministic type, %s is not",
			name, obj.Type.Name())
	}
	if policy == nil {
		return nil, fmt.Errorf("base: eventual object %q requires a policy", name)
	}
	return &Eventual{
		name:   name,
		typ:    obj.Type,
		obj:    obj,
		state:  obj.Init,
		policy: policy,
		log:    history.New(),
		opts:   opts,
	}, nil
}

// Name implements Object.
func (e *Eventual) Name() string { return e.name }

// Stabilized reports whether the object has reached its stabilization
// point (its next action will be answered atomically).
func (e *Eventual) Stabilized() bool { return e.policy.Stabilized(e.steps) }

// Policy returns the stabilization policy.
func (e *Eventual) Policy() Policy { return e.policy }

// trueResponse computes the response a linearizable object would give.
func (e *Eventual) trueResponse(op spec.Op) (int64, error) {
	out, n := e.typ.Step(e.state, op, 0)
	if n == 0 {
		return 0, fmt.Errorf("base: %s (%s) rejects %s in state %v", e.name, e.typ.Name(), op, e.state)
	}
	return out.Resp, nil
}

// AppendCandidates implements Object. The true response is always first;
// pre-stabilization, every other weakly consistent response follows.
func (e *Eventual) AppendCandidates(buf []int64, proc int, op spec.Op) ([]int64, error) {
	truth, err := e.trueResponse(op)
	if err != nil {
		return buf, err
	}
	buf = append(buf, truth)
	if e.Stabilized() {
		return buf, nil
	}
	// Tabulate the hypothetical history with this operation pending and
	// enumerate Definition 1 responses. The pending invocation is appended
	// to the live log and truncated away once the table holds it, avoiding
	// a full log clone per candidate computation.
	logLen := e.log.Len()
	if err := e.log.Invoke(proc, e.name, op); err != nil {
		return buf, fmt.Errorf("base: %s candidates: %w", e.name, err)
	}
	e.tb.Fill(e.log)
	e.log.Truncate(logLen)
	from := len(buf)
	buf, err = check.AppendWeakResponses(buf, e.obj, &e.tb, proc, e.opts)
	if err != nil {
		return buf, fmt.Errorf("base: %s candidates: %w", e.name, err)
	}
	weak := slices.DeleteFunc(buf[from:], func(r int64) bool { return r == truth })
	return buf[:from+len(weak)], nil
}

// Commit implements Object: the mutation follows the type's transition in
// commit order regardless of the (possibly stale) response handed out.
func (e *Eventual) Commit(proc int, op spec.Op, resp int64) error {
	out, n := e.typ.Step(e.state, op, 0)
	if n == 0 {
		return fmt.Errorf("base: %s (%s) rejects %s in state %v", e.name, e.typ.Name(), op, e.state)
	}
	if e.Stabilized() && resp != out.Resp {
		return fmt.Errorf("base: %s stabilized commit of %s with response %d, want %d",
			e.name, op, resp, out.Resp)
	}
	if err := e.log.Call(proc, e.name, op, out.Resp); err != nil {
		return fmt.Errorf("base: %s log: %w", e.name, err)
	}
	e.state = out.Next
	e.steps++
	return nil
}

// State implements Object.
func (e *Eventual) State() spec.State { return e.state }

// Steps implements Object.
func (e *Eventual) Steps() int { return e.steps }

// Clone implements Object.
func (e *Eventual) Clone() Object {
	cp := *e
	cp.log = e.log.Clone()
	cp.tb = history.OpTable{}
	return &cp
}

// Snapshot implements Object.
func (e *Eventual) Snapshot() Snapshot {
	return Snapshot{State: e.state, Steps: e.steps, LogLen: e.log.Len()}
}

// Restore implements Object.
func (e *Eventual) Restore(s Snapshot) {
	e.state = s.State
	e.steps = s.Steps
	e.log.Truncate(s.LogLen)
}

// AppendFingerprint implements Object. The committed log is included
// because the Definition 1 candidate sets of future actions are computed
// against it: two Eventual objects behave identically iff state, step count
// and log agree.
func (e *Eventual) AppendFingerprint(b []byte) []byte {
	b, ok := spec.AppendFPState(b, e.state)
	if !ok {
		b = append(b, '?')
	}
	b = spec.AppendFPInt(b, int64(e.steps))
	return e.log.AppendFingerprint(b)
}

// ----------------------------------------------------------------------------
// Instantiation from machine.Base descriptors.

// PolicyFor assigns a stabilization policy to an eventually linearizable
// base object, identified by its index and descriptor.
type PolicyFor func(index int, name string) Policy

// SamePolicy assigns one policy to every eventually linearizable base.
func SamePolicy(p Policy) PolicyFor {
	return func(int, string) Policy { return p }
}

// Instantiate builds live objects for an implementation's base descriptor
// list. Non-eventual bases become Atomic; eventual ones become Eventual
// with the assigned policy (SamePolicy(Immediate()) if policies is nil).
func Instantiate(bases []machine.Base, policies PolicyFor, opts check.Options) ([]Object, error) {
	if policies == nil {
		policies = SamePolicy(Immediate())
	}
	out := make([]Object, 0, len(bases))
	for i, b := range bases {
		if b.Eventually {
			obj, err := NewEventual(b.Name, b.Obj, policies(i, b.Name), opts)
			if err != nil {
				return nil, err
			}
			out = append(out, obj)
			continue
		}
		obj, err := NewAtomic(b.Name, b.Obj)
		if err != nil {
			return nil, err
		}
		out = append(out, obj)
	}
	return out, nil
}
