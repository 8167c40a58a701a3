package counter

import (
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// Junk is a deliberately broken fetch&increment: it increments correctly
// through CAS (so the liveness structure is intact) but overshoots its
// response by JunkOffset whenever the pre-increment value is congruent to
// 1 mod 3. The overshoot responses are "out of left field" — they violate
// weak consistency (Definition 1) because they exceed the number of
// operations invoked so far.
//
// Junk is the demonstration input for the Figure 1 wrapper (package
// announce): wrapping Junk restores weak consistency, because the line 13
// verification rejects the overshoots and substitutes the private fallback
// response.
type Junk struct {
	// JunkOffset is added to every third response (default 100 if zero).
	JunkOffset int64
}

var _ machine.Impl = Junk{}

// Name implements machine.Impl.
func (Junk) Name() string { return "junk-counter" }

// Spec implements machine.Impl.
func (Junk) Spec() spec.Object { return spec.NewObject(spec.FetchInc{}) }

// Bases implements machine.Impl.
func (Junk) Bases() []machine.Base {
	return []machine.Base{{
		Name: "C",
		Obj:  spec.Object{Type: spec.CAS{}, Init: int64(0)},
	}}
}

// NewProcess implements machine.Impl.
func (j Junk) NewProcess(p, n int) machine.Process {
	off := j.JunkOffset
	if off == 0 {
		off = 100
	}
	return &junkProc{offset: off}
}

type junkProc struct {
	offset int64
	pc     int
	v      int64
}

func (j *junkProc) Begin(op spec.Op) { j.pc = casIdle }

func (j *junkProc) Step(resp int64) machine.Action {
	switch j.pc {
	case casIdle:
		j.pc = casAfterRead
		return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
	case casAfterRead:
		j.v = resp
		j.pc = casAfterCAS
		return machine.Invoke(0, spec.MakeOp2(spec.MethodCAS, j.v, j.v+1))
	default: // casAfterCAS
		if resp != 1 {
			j.pc = casAfterRead
			return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
		}
		if j.v%3 == 1 {
			return machine.Return(j.v + j.offset)
		}
		return machine.Return(j.v)
	}
}

func (j *junkProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[junkProc](dst)
	*cp = *j
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (j *junkProc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(j.pc))
	return spec.AppendFPInt(b, j.v), true
}
