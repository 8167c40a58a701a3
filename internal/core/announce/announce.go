// Package announce implements Figure 1 of the paper (the proof of
// Proposition 11): a wrapper that upgrades any implementation satisfying
// only the liveness half of eventual linearizability (t-linearizability for
// some t) into one that also satisfies the safety half (weak consistency,
// Definition 1) — hence into an eventually linearizable implementation —
// using a family of single-writer announcement registers.
//
// Per operation, the wrapper:
//
//  1. announces the operation by writing it into the process's announcement
//     array R_i[c_i] (line 2);
//  2. computes a private fallback response r_private by applying the
//     operation to a local copy q_i of the object that has seen only this
//     process's operations (line 4);
//  3. runs the inner implementation to obtain r_shared (line 5);
//  4. reads every process's announcement array to collect all announced
//     operations (lines 6-12);
//  5. returns r_shared if some permutation of a subset of the announced
//     operations — including all of its own — forms a legal sequential
//     execution in which the operation returns r_shared (line 13), and
//     otherwise returns r_private (line 14).
package announce

import (
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// MaxProcs bounds the number of processes (one announcement array each).
const MaxProcs = 8

// Impl is the Figure 1 wrapper around an inner implementation.
type Impl struct {
	inner machine.Impl
	opts  check.Options
}

var _ machine.Impl = (*Impl)(nil)

// New wraps inner with the Figure 1 algorithm. The inner implementation's
// type must have finite nondeterminism (all types in this module do), and
// its operations must have a word encoding (spec.EncodeOpWord): that word
// is the announcement value.
func New(inner machine.Impl, opts check.Options) *Impl {
	return &Impl{inner: inner, opts: opts}
}

// Name implements machine.Impl.
func (im *Impl) Name() string { return im.inner.Name() + "-announced" }

// Spec implements machine.Impl.
func (im *Impl) Spec() spec.Object { return im.inner.Spec() }

// Bases implements machine.Impl: the inner bases followed by one
// linearizable announcement array per process (Proposition 11's "system
// that includes linearizable registers as base objects").
func (im *Impl) Bases() []machine.Base {
	inner := im.inner.Bases()
	out := make([]machine.Base, 0, len(inner)+MaxProcs)
	out = append(out, inner...)
	for i := 0; i < MaxProcs; i++ {
		out = append(out, machine.Base{
			Name: fmt.Sprintf("R%d", i),
			Obj: spec.Object{
				Type: spec.RegisterArray{InitVal: spec.NoValue},
				Init: spec.RegisterArray{InitVal: spec.NoValue}.Init(),
			},
		})
	}
	return out
}

// NewProcess implements machine.Impl.
func (im *Impl) NewProcess(p, n int) machine.Process {
	return &proc{
		me:        p,
		n:         n,
		arrayBase: len(im.inner.Bases()),
		inner:     im.inner.NewProcess(p, n),
		obj:       im.inner.Spec(),
		q:         im.inner.Spec().Init,
		opts:      im.opts,
	}
}

const (
	phStart = iota
	phAnnounced
	phInner
	phScan
)

type proc struct {
	me, n     int
	arrayBase int
	inner     machine.Process
	obj       spec.Object
	opts      check.Options

	// Cross-operation state (the paper's c_i and q_i).
	c int64      // operations announced so far
	q spec.State // object state seen through own operations only

	// Per-operation state.
	phase    int
	op       spec.Op
	rprivate int64
	rshared  int64
	scanJ    int
	scanK    int64
	ownOps   []spec.Op
	otherOps []spec.Op
}

func (c *proc) Begin(op spec.Op) {
	c.phase = phStart
	c.op = op
}

func (c *proc) Step(resp int64) machine.Action {
	switch c.phase {
	case phStart:
		code, err := spec.EncodeOpWord(c.op)
		if err != nil {
			panic(fmt.Sprintf("announce: %v", err))
		}
		c.phase = phAnnounced
		return machine.Invoke(c.arrayBase+c.me, spec.MakeOp2(spec.MethodWrite, c.c, code))
	case phAnnounced:
		c.c++
		out, n := c.obj.Type.Step(c.q, c.op, 0)
		if n == 0 {
			panic(fmt.Sprintf("announce: %s inapplicable to private state %v", c.op, c.q))
		}
		c.q = out.Next
		c.rprivate = out.Resp
		c.inner.Begin(c.op)
		return c.driveInner(0)
	case phInner:
		return c.driveInner(resp)
	default: // phScan: resp answers the read of R_scanJ[scanK]
		return c.scanStep(resp)
	}
}

// driveInner forwards the inner implementation's actions; when the inner
// operation completes, the announcement scan begins.
func (c *proc) driveInner(resp int64) machine.Action {
	act := c.inner.Step(resp)
	if act.Kind == machine.ActInvoke {
		c.phase = phInner
		return act
	}
	c.rshared = act.Ret
	c.phase = phScan
	c.scanJ = 0
	c.scanK = 0
	c.ownOps = c.ownOps[:0]
	c.otherOps = c.otherOps[:0]
	return machine.Invoke(c.arrayBase, spec.MakeOp1(spec.MethodRead, 0))
}

// scanStep consumes one announcement-array read and issues the next, or
// finishes the operation once every array has been drained.
func (c *proc) scanStep(resp int64) machine.Action {
	if resp == spec.NoValue {
		c.scanJ++
		c.scanK = 0
	} else {
		op, err := spec.DecodeOpWord(resp)
		if err != nil {
			panic(fmt.Sprintf("announce: announcement %d: %v", resp, err))
		}
		if c.scanJ == c.me {
			c.ownOps = append(c.ownOps, op)
		} else {
			c.otherOps = append(c.otherOps, op)
		}
		c.scanK++
	}
	if c.scanJ < c.n {
		return machine.Invoke(c.arrayBase+c.scanJ, spec.MakeOp1(spec.MethodRead, c.scanK))
	}
	return machine.Return(c.finish())
}

// finish performs the line 13 test and picks r_shared or r_private.
func (c *proc) finish() int64 {
	if len(c.ownOps) == 0 || c.ownOps[len(c.ownOps)-1] != c.op {
		panic(fmt.Sprintf("announce: own announcement missing: read %v, current %s", c.ownOps, c.op))
	}
	must := c.ownOps[:len(c.ownOps)-1]
	ok, err := check.SequentialWitness(c.obj, must, c.otherOps, c.op, c.rshared, c.opts)
	if err != nil {
		panic(fmt.Sprintf("announce: witness search: %v", err))
	}
	if ok {
		return c.rshared
	}
	return c.rprivate
}

func (c *proc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[proc](dst)
	inner, own, other := cp.inner, cp.ownOps[:0], cp.otherOps[:0]
	*cp = *c
	cp.inner = c.inner.CloneInto(inner)
	cp.ownOps = append(own, c.ownOps...)
	cp.otherOps = append(other, c.otherOps...)
	return cp
}

// AppendFingerprint implements machine.Fingerprinter; it reports false
// when the inner programme is not a Fingerprinter.
func (c *proc) AppendFingerprint(b []byte) ([]byte, bool) {
	f, ok := c.inner.(machine.Fingerprinter)
	if !ok {
		return b, false
	}
	b, ok = f.AppendFingerprint(b)
	if !ok {
		return b, false
	}
	b = spec.AppendFPInt(b, c.c)
	b = spec.AppendFPState(b, c.q)
	b = spec.AppendFPInt(b, int64(c.phase))
	b = spec.AppendFPOp(b, c.op)
	b = spec.AppendFPInt(b, c.rprivate)
	b = spec.AppendFPInt(b, c.rshared)
	b = spec.AppendFPInt(b, int64(c.scanJ))
	b = spec.AppendFPInt(b, c.scanK)
	b = spec.AppendFPInt(b, int64(len(c.ownOps)))
	for _, op := range c.ownOps {
		b = spec.AppendFPOp(b, op)
	}
	b = spec.AppendFPInt(b, int64(len(c.otherOps)))
	for _, op := range c.otherOps {
		b = spec.AppendFPOp(b, op)
	}
	return b, true
}
