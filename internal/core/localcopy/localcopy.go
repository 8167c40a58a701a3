// Package localcopy implements the construction in the proof of
// Theorem 12: given an implementation I of type T from a collection of
// eventually linearizable objects, build the implementation I′ in which
// every shared base object is replaced by per-process local copies. Since
// the eventually linearizable bases may return arbitrary weakly consistent
// answers in any finite prefix, every finite history of I′ is also a
// history of I; and I′ uses no shared objects at all, so each process is
// isolated.
//
// The theorem's punchline is the contrapositive: if exhaustive exploration
// of I′ exhibits a non-linearizable history for a type that is not trivial
// (Definition 13), then no linearizable obstruction-free implementation of
// that type from eventually linearizable objects exists.
package localcopy

import (
	"fmt"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// DefaultMaxInnerSteps bounds the inner steps simulated per operation.
const DefaultMaxInnerSteps = 1 << 14

// Impl is the local-copy transformation I′ of an inner implementation I.
type Impl struct {
	inner        machine.Impl
	maxInner     int
	templateBase []machine.Base
}

var _ machine.Impl = (*Impl)(nil)

// New builds the local-copy transformation. Theorem 12's hypothesis
// requires every base object of the inner implementation to be eventually
// linearizable (and, as everywhere in this module, deterministic so that
// local simulation is well-defined); New enforces both.
func New(inner machine.Impl, maxInnerSteps int) (*Impl, error) {
	if maxInnerSteps <= 0 {
		maxInnerSteps = DefaultMaxInnerSteps
	}
	bases := inner.Bases()
	for _, b := range bases {
		if !b.Eventually {
			return nil, fmt.Errorf("localcopy: base %q of %s is linearizable; Theorem 12 applies to implementations from eventually linearizable objects only",
				b.Name, inner.Name())
		}
		if !b.Obj.Type.Deterministic() {
			return nil, fmt.Errorf("localcopy: base %q of %s has nondeterministic type %s",
				b.Name, inner.Name(), b.Obj.Type.Name())
		}
	}
	return &Impl{inner: inner, maxInner: maxInnerSteps, templateBase: bases}, nil
}

// Name implements machine.Impl.
func (im *Impl) Name() string { return im.inner.Name() + "-localcopy" }

// Spec implements machine.Impl.
func (im *Impl) Spec() spec.Object { return im.inner.Spec() }

// Bases implements machine.Impl: the construction uses no shared objects.
func (im *Impl) Bases() []machine.Base { return nil }

// NewProcess implements machine.Impl: process p runs the inner programme
// against fresh local copies o_1, ..., o_m of the base objects.
func (im *Impl) NewProcess(p, n int) machine.Process {
	copies := make([]localObj, len(im.templateBase))
	for i, b := range im.templateBase {
		copies[i] = localObj{typ: b.Obj.Type, state: b.Obj.Init}
	}
	return &proc{
		inner:    im.inner.NewProcess(p, n),
		copies:   copies,
		maxInner: im.maxInner,
	}
}

type localObj struct {
	typ   spec.Type
	state spec.State
}

type proc struct {
	inner    machine.Process
	copies   []localObj
	maxInner int
}

func (c *proc) Begin(op spec.Op) { c.inner.Begin(op) }

// Step runs the inner programme to completion against the local copies.
// All inner base actions are local computation in the transformed
// implementation, so the whole operation is one step of I′ — which is also
// why I′ is wait-free whenever I is obstruction-free: the inner programme
// runs solo against its copies.
//
// Step panics if the inner programme violates its contract (invokes an
// out-of-range base, applies an inapplicable operation, or exceeds
// maxInner steps without returning); these are programmer errors in the
// inner implementation, not runtime conditions.
func (c *proc) Step(resp int64) machine.Action {
	act := c.inner.Step(resp)
	for steps := 0; act.Kind == machine.ActInvoke; steps++ {
		if steps >= c.maxInner {
			panic(fmt.Sprintf("localcopy: inner programme exceeded %d steps without returning (not obstruction-free solo?)", c.maxInner))
		}
		if act.Obj < 0 || act.Obj >= len(c.copies) {
			panic(fmt.Sprintf("localcopy: inner programme invoked unknown base %d", act.Obj))
		}
		obj := &c.copies[act.Obj]
		out, n := obj.typ.Step(obj.state, act.Op, 0)
		if n == 0 {
			panic(fmt.Sprintf("localcopy: base %d (%s) rejects %s in state %v",
				act.Obj, obj.typ.Name(), act.Op, obj.state))
		}
		obj.state = out.Next
		act = c.inner.Step(out.Resp)
	}
	return machine.Return(act.Ret)
}

func (c *proc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[proc](dst)
	cp.inner = c.inner.CloneInto(cp.inner)
	cp.copies = append(cp.copies[:0], c.copies...)
	cp.maxInner = c.maxInner
	return cp
}

// AppendFingerprint implements machine.Fingerprinter; it reports false
// when the inner programme is not a Fingerprinter. The local base-object
// copies are part of the process state and are included.
func (c *proc) AppendFingerprint(b []byte) ([]byte, bool) {
	f, ok := c.inner.(machine.Fingerprinter)
	if !ok {
		return b, false
	}
	b, ok = f.AppendFingerprint(b)
	if !ok {
		return b, false
	}
	for i := range c.copies {
		b, ok = spec.AppendFPState(b, c.copies[i].state)
		if !ok {
			return b, false
		}
	}
	return b, true
}
