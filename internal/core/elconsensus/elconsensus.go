// Package elconsensus implements Proposition 16: a wait-free, eventually
// linearizable consensus object built from eventually linearizable
// single-writer registers.
//
// The algorithm is the paper's, verbatim:
//
//	Propose(v):
//	  if Proposal[i] = ⊥ then Proposal[i] := v
//	  read Proposal[1..n] and return leftmost non-⊥ value
//
// Weak consistency of the base registers guarantees that a process's read
// of its own register returns ⊥ exactly until its first write, so the
// leftmost non-⊥ value is always well-defined; once the base registers
// stabilize and the writes settle, all late Propose operations read the
// same array and return the same value, which is what makes the
// implementation eventually linearizable (see the proof of Proposition 16).
package elconsensus

import (
	"fmt"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// MaxProcs bounds the number of processes (one single-writer register
// each).
const MaxProcs = 8

// Impl is the Proposition 16 implementation.
type Impl struct {
	// AtomicBases, when true, uses linearizable base registers instead of
	// eventually linearizable ones. The proposition holds either way (a
	// linearizable register is a degenerate eventually linearizable one);
	// the interesting runs use the default false.
	AtomicBases bool
}

var _ machine.Impl = Impl{}

// Name implements machine.Impl.
func (Impl) Name() string { return "el-consensus" }

// Spec implements machine.Impl.
func (Impl) Spec() spec.Object { return spec.NewObject(spec.Consensus{}) }

// Bases implements machine.Impl: one register per process, initialized to
// the paper's ⊥ (spec.NoValue), eventually linearizable by default.
func (im Impl) Bases() []machine.Base {
	bases := make([]machine.Base, MaxProcs)
	for i := range bases {
		bases[i] = machine.Base{
			Name:       fmt.Sprintf("Proposal%d", i),
			Obj:        spec.NewObject(spec.Register{InitVal: spec.NoValue}),
			Eventually: !im.AtomicBases,
		}
	}
	return bases
}

// NewProcess implements machine.Impl.
func (Impl) NewProcess(p, n int) machine.Process {
	return &proc{p: p, n: n}
}

const (
	stIdle = iota
	stAfterOwnRead
	stAfterWrite
	stScanning
)

type proc struct {
	p, n     int
	pc       int
	v        int64 // current proposal argument
	scan     int   // next register to read in the scan
	leftmost int64 // leftmost non-⊥ seen so far
}

func (c *proc) Begin(op spec.Op) {
	c.pc = stIdle
	c.v = op.Args[0]
}

func (c *proc) Step(resp int64) machine.Action {
	switch c.pc {
	case stIdle:
		c.pc = stAfterOwnRead
		return machine.Invoke(c.p, spec.MakeOp(spec.MethodRead))
	case stAfterOwnRead:
		if resp == spec.NoValue {
			c.pc = stAfterWrite
			return machine.Invoke(c.p, spec.MakeOp1(spec.MethodWrite, c.v))
		}
		return c.startScan()
	case stAfterWrite:
		return c.startScan()
	default: // stScanning: resp answers the read of register c.scan
		if resp != spec.NoValue && c.leftmost == spec.NoValue {
			c.leftmost = resp
		}
		c.scan++
		if c.scan >= c.n {
			return machine.Return(c.leftmost)
		}
		return machine.Invoke(c.scan, spec.MakeOp(spec.MethodRead))
	}
}

func (c *proc) startScan() machine.Action {
	c.scan = 0
	c.leftmost = spec.NoValue
	c.pc = stScanning
	return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
}

func (c *proc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[proc](dst)
	*cp = *c
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (c *proc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(c.pc))
	b = spec.AppendFPInt(b, c.v)
	b = spec.AppendFPInt(b, int64(c.scan))
	return spec.AppendFPInt(b, c.leftmost), true
}
