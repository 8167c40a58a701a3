// Package passthrough implements an object of type T from a single base
// object of the same type T: every operation is delegated to the base. It
// is the identity of the implementation algebra and the building block of
// several of the paper's arguments:
//
//   - over a linearizable base it is the degenerate linearizable
//     implementation (used as the "strong pivot" protocol in the
//     Proposition 15 case analysis);
//   - over an eventually linearizable base it is the canonical
//     implementation "from some collection of eventually linearizable
//     objects" that Theorem 12's local-copy construction transforms.
package passthrough

import (
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// Impl delegates every operation to one base object.
type Impl struct {
	// ImplName names the implementation (and the implemented object in
	// histories).
	ImplName string
	// Base is the base object's specification.
	Base spec.Object
	// Eventually marks the base object as eventually linearizable.
	Eventually bool
}

var _ machine.Impl = Impl{}

// New returns a passthrough implementation of obj. If eventually is true
// the base is eventually linearizable.
func New(name string, obj spec.Object, eventually bool) Impl {
	return Impl{ImplName: name, Base: obj, Eventually: eventually}
}

// Name implements machine.Impl.
func (im Impl) Name() string { return im.ImplName }

// Spec implements machine.Impl.
func (im Impl) Spec() spec.Object { return im.Base }

// Bases implements machine.Impl.
func (im Impl) Bases() []machine.Base {
	return []machine.Base{{Name: "B", Obj: im.Base, Eventually: im.Eventually}}
}

// NewProcess implements machine.Impl.
func (im Impl) NewProcess(p, n int) machine.Process { return &proc{} }

type proc struct {
	waiting bool
	op      spec.Op
}

func (c *proc) Begin(op spec.Op) {
	c.waiting = false
	c.op = op
}

func (c *proc) Step(resp int64) machine.Action {
	if !c.waiting {
		c.waiting = true
		return machine.Invoke(0, c.op)
	}
	return machine.Return(resp)
}

func (c *proc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[proc](dst)
	*cp = *c
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (c *proc) AppendFingerprint(b []byte) ([]byte, bool) {
	if c.waiting {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return spec.AppendFPOp(b, c.op), true
}
