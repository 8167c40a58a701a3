// Package eltestset implements the two test&set objects of the paper's
// Section 4/5 discussion:
//
//   - Local: the eventually linearizable test&set that uses no shared
//     objects at all — each process returns 0 from its first testset and 1
//     from every later one. At most n operations ever return 0, all within
//     a finite prefix, so every (infinite) history is t-linearizable once
//     the prefix has passed; the implementation communicates nothing and is
//     trivially wait-free. This is the paper's example of a type whose
//     "interesting" behaviour lives in a finite prefix, making eventual
//     linearizability free.
//   - FromCAS: the linearizable test&set from compare&swap, for contrast:
//     full linearizability of test&set requires real synchronization (it
//     solves two-process consensus).
package eltestset

import (
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// Local is the communication-free eventually linearizable test&set.
type Local struct{}

var _ machine.Impl = Local{}

// Name implements machine.Impl.
func (Local) Name() string { return "el-testset" }

// Spec implements machine.Impl.
func (Local) Spec() spec.Object { return spec.NewObject(spec.TestSet{}) }

// Bases implements machine.Impl: none.
func (Local) Bases() []machine.Base { return nil }

// NewProcess implements machine.Impl.
func (Local) NewProcess(p, n int) machine.Process { return &localProc{} }

type localProc struct {
	called bool
}

func (l *localProc) Begin(op spec.Op) {}

func (l *localProc) Step(resp int64) machine.Action {
	if l.called {
		return machine.Return(1)
	}
	l.called = true
	return machine.Return(0)
}

func (l *localProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[localProc](dst)
	*cp = *l
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (l *localProc) AppendFingerprint(b []byte) ([]byte, bool) {
	if l.called {
		return append(b, 1), true
	}
	return append(b, 0), true
}

// FromCAS is the linearizable test&set from a compare&swap word.
type FromCAS struct{}

var _ machine.Impl = FromCAS{}

// Name implements machine.Impl.
func (FromCAS) Name() string { return "cas-testset" }

// Spec implements machine.Impl.
func (FromCAS) Spec() spec.Object { return spec.NewObject(spec.TestSet{}) }

// Bases implements machine.Impl.
func (FromCAS) Bases() []machine.Base {
	return []machine.Base{{
		Name: "C",
		Obj:  spec.Object{Type: spec.CAS{}, Init: int64(0)},
	}}
}

// NewProcess implements machine.Impl.
func (FromCAS) NewProcess(p, n int) machine.Process { return &casTSProc{} }

type casTSProc struct {
	waiting bool
}

func (c *casTSProc) Begin(op spec.Op) { c.waiting = false }

func (c *casTSProc) Step(resp int64) machine.Action {
	if !c.waiting {
		c.waiting = true
		return machine.Invoke(0, spec.MakeOp2(spec.MethodCAS, 0, 1))
	}
	if resp == 1 {
		return machine.Return(0)
	}
	return machine.Return(1)
}

func (c *casTSProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[casTSProc](dst)
	*cp = *c
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (c *casTSProc) AppendFingerprint(b []byte) ([]byte, bool) {
	if c.waiting {
		return append(b, 1), true
	}
	return append(b, 0), true
}
