// Package counter provides the fetch&increment implementations around which
// the paper's paradox revolves:
//
//   - CAS: the textbook linearizable, non-blocking fetch&increment from
//     compare&swap (what the paper's introduction says such counters are
//     "typically implemented in software using").
//   - Sloppy: the introduction's eventually-consistent counter — increment
//     locally, announce via a single-writer register, return a possibly
//     lower value. It is always weakly consistent and every increment is
//     eventually counted, yet by Corollary 19 it cannot be eventually
//     linearizable: under perpetual contention its histories require
//     ever-growing t (the divergence the experiments measure).
//   - Warmup: an eventually linearizable but non-linearizable counter. It
//     increments through CAS (so nothing is lost) but answers with its
//     private operation count until the shared count crosses a threshold;
//     afterwards it is the linearizable CAS counter. The stabilization
//     point depends on the schedule, exactly the regime Proposition 18
//     quantifies over; the stable-configuration construction (package
//     stabilize) extracts the linearizable core from it.
package counter

import (
	"fmt"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// ----------------------------------------------------------------------------
// CAS counter (linearizable).

// CAS is the linearizable fetch&increment from a compare&swap base object.
type CAS struct {
	// InitVal is the counter's initial value.
	InitVal int64
}

var _ machine.Impl = CAS{}

// Name implements machine.Impl.
func (CAS) Name() string { return "cas-counter" }

// Spec implements machine.Impl.
func (c CAS) Spec() spec.Object {
	return spec.Object{Type: spec.FetchInc{InitVal: c.InitVal}, Init: c.InitVal}
}

// Bases implements machine.Impl: a single linearizable CAS word.
func (c CAS) Bases() []machine.Base {
	return []machine.Base{{
		Name: "C",
		Obj:  spec.Object{Type: spec.CAS{InitVal: c.InitVal}, Init: c.InitVal},
	}}
}

// NewProcess implements machine.Impl.
func (CAS) NewProcess(p, n int) machine.Process { return &casProc{} }

const (
	casIdle = iota
	casAfterRead
	casAfterCAS
)

type casProc struct {
	pc int
	v  int64
}

func (c *casProc) Begin(op spec.Op) { c.pc = casIdle }

func (c *casProc) Step(resp int64) machine.Action {
	switch c.pc {
	case casIdle:
		c.pc = casAfterRead
		return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
	case casAfterRead:
		c.v = resp
		c.pc = casAfterCAS
		return machine.Invoke(0, spec.MakeOp2(spec.MethodCAS, c.v, c.v+1))
	default: // casAfterCAS
		if resp == 1 {
			return machine.Return(c.v)
		}
		c.pc = casAfterRead
		return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
	}
}

func (c *casProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[casProc](dst)
	*cp = *c
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (c *casProc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(c.pc))
	return spec.AppendFPInt(b, c.v), true
}

// ----------------------------------------------------------------------------
// Sloppy counter (registers only; weakly consistent, not eventually
// linearizable — the Corollary 19 witness).

// Sloppy is the introduction's counter over single-writer registers: each
// process announces its private increment count in its own register and
// returns the sum of all announcements minus one.
type Sloppy struct {
	// EventualBases, when true, marks the announcement registers as
	// eventually linearizable instead of atomic. The counter's guarantees
	// are unchanged (it never relies on register freshness).
	EventualBases bool
}

var _ machine.Impl = Sloppy{}

// Name implements machine.Impl.
func (Sloppy) Name() string { return "sloppy-counter" }

// Spec implements machine.Impl.
func (Sloppy) Spec() spec.Object { return spec.NewObject(spec.FetchInc{}) }

// Bases implements machine.Impl. The register count is fixed by the first
// NewProcess call's n; Bases cannot know n, so Sloppy uses MaxProcs
// registers. Unused registers stay 0 and are harmless.
func (s Sloppy) Bases() []machine.Base {
	bases := make([]machine.Base, MaxProcs)
	for i := range bases {
		bases[i] = machine.Base{
			Name:       fmt.Sprintf("Inc%d", i),
			Obj:        spec.Object{Type: spec.Register{}, Init: int64(0)},
			Eventually: s.EventualBases,
		}
	}
	return bases
}

// MaxProcs bounds the number of processes the register-family
// implementations support (one single-writer register per process).
const MaxProcs = 8

// NewProcess implements machine.Impl.
func (Sloppy) NewProcess(p, n int) machine.Process {
	return &sloppyProc{p: p, n: n}
}

const (
	sloppyIdle = iota
	sloppyAfterWrite
	sloppyReading
)

type sloppyProc struct {
	p, n     int
	pc       int
	mine     int64 // private increment count (persists across operations)
	sum      int64
	nextRead int
}

func (s *sloppyProc) Begin(op spec.Op) {
	s.pc = sloppyIdle
}

func (s *sloppyProc) Step(resp int64) machine.Action {
	switch s.pc {
	case sloppyIdle:
		s.mine++
		s.pc = sloppyAfterWrite
		return machine.Invoke(s.p, spec.MakeOp1(spec.MethodWrite, s.mine))
	case sloppyAfterWrite:
		s.sum = 0
		s.nextRead = 0
		s.pc = sloppyReading
		if s.nextRead == s.p {
			s.nextRead++
		}
		if s.nextRead >= s.n {
			return machine.Return(s.mine - 1)
		}
		return machine.Invoke(s.nextRead, spec.MakeOp(spec.MethodRead))
	default: // sloppyReading
		s.sum += resp
		s.nextRead++
		if s.nextRead == s.p {
			s.nextRead++
		}
		if s.nextRead >= s.n {
			return machine.Return(s.mine + s.sum - 1)
		}
		return machine.Invoke(s.nextRead, spec.MakeOp(spec.MethodRead))
	}
}

func (s *sloppyProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[sloppyProc](dst)
	*cp = *s
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (s *sloppyProc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(s.pc))
	b = spec.AppendFPInt(b, s.mine)
	b = spec.AppendFPInt(b, s.sum)
	return spec.AppendFPInt(b, int64(s.nextRead)), true
}

// ----------------------------------------------------------------------------
// Warmup counter (eventually linearizable, not linearizable).

// Warmup increments through a CAS word like CAS, but answers with its
// private operation count while the shared count is below Threshold. Every
// execution in which operations keep completing eventually crosses the
// threshold, after which responses are the linearizable CAS values; hence
// every history is weakly consistent and t-linearizable for a t that
// depends on the schedule — eventually linearizable with no uniform
// stabilization bound, which is precisely the class of implementations
// Proposition 18's construction accepts.
type Warmup struct {
	// Threshold is the shared count at which responses become truthful.
	Threshold int64
}

var _ machine.Impl = Warmup{}

// Name implements machine.Impl.
func (w Warmup) Name() string { return "warmup-counter" }

// Spec implements machine.Impl.
func (Warmup) Spec() spec.Object { return spec.NewObject(spec.FetchInc{}) }

// Bases implements machine.Impl: a single linearizable CAS word, as
// Proposition 18 requires ("from a set O of linearizable objects").
func (Warmup) Bases() []machine.Base {
	return []machine.Base{{
		Name: "C",
		Obj:  spec.Object{Type: spec.CAS{}, Init: int64(0)},
	}}
}

// NewProcess implements machine.Impl.
func (w Warmup) NewProcess(p, n int) machine.Process {
	return &warmupProc{threshold: w.Threshold}
}

type warmupProc struct {
	threshold int64
	pc        int
	v         int64
	done      int64 // operations completed by this process (persists)
}

func (w *warmupProc) Begin(op spec.Op) { w.pc = casIdle }

func (w *warmupProc) Step(resp int64) machine.Action {
	switch w.pc {
	case casIdle:
		w.pc = casAfterRead
		return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
	case casAfterRead:
		w.v = resp
		w.pc = casAfterCAS
		return machine.Invoke(0, spec.MakeOp2(spec.MethodCAS, w.v, w.v+1))
	default: // casAfterCAS
		if resp != 1 {
			w.pc = casAfterRead
			return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
		}
		ret := w.v
		if w.v < w.threshold {
			ret = w.done // private count: weakly consistent, possibly stale
		}
		w.done++
		return machine.Return(ret)
	}
}

func (w *warmupProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[warmupProc](dst)
	*cp = *w
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (w *warmupProc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(w.pc))
	b = spec.AppendFPInt(b, w.v)
	return spec.AppendFPInt(b, w.done), true
}
