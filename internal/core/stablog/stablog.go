// Package stablog implements the stabilizing-log construction of
// "Stabilizing Logs for Eventually Linearizable Shared Objects"
// (arXiv 1512.08258) as a machine.Impl family — the main competitor to the
// paper's local-copy construction (Theorem 12, internal/core/localcopy).
//
// One linearizable append-only log L (spec.OpLog) is shared by every
// process. Performing an operation means appending its word encoding
// (spec.EncodeOpWord) to L;
// the position the log assigns is the operation's place in the single
// agreed total order. What a process answers depends on how far its
// *stable prefix* lags behind its own append:
//
//   - Speculative apply: while the gap pos+1-frontier stays below the
//     promotion batch K, the process answers immediately from its local
//     speculative state (the stable replica plus its own pending
//     operations, in local order) — fast, but blind to concurrent appends
//     in the gap.
//   - Stabilization: once the gap reaches K, the process catches up — it
//     reads every log entry in [frontier, pos], re-executes them against
//     its replica in agreed order (re-execution on rebase: the speculative
//     state is discarded wholesale), promotes the frontier past its own
//     entry, and answers from the agreed order exactly.
//
// The promotion rule is a pure function of log positions — no randomness,
// no wall clock — so a live run's responses are a deterministic function
// of the commit order and replay stays byte-identical (the live package's
// reproducibility contract). K=1 makes every operation catch up, which is
// exactly linearizability: the log order is the linearization and each
// response is computed from the full agreed prefix. K>1 trades bounded
// staleness for latency: a speculative response misses at most K-1
// concurrent operations, so MinT stays bounded where the local-copy
// construction's divergence grows without bound (E19 measures the
// head-to-head).
package stablog

import (
	"fmt"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// DefaultBatch is the promotion batch K used by the unparameterized
// registry family members (slog-counter, slog-register, slog-testset).
const DefaultBatch = 4

// ----------------------------------------------------------------------------
// The implementation.

// Impl is one member of the stabilizing-log family.
type Impl struct {
	name  string
	inner spec.Object
	batch int64
}

var _ machine.Impl = (*Impl)(nil)

// New builds a stabilizing-log implementation of the inner object with
// promotion batch K (K=1 is linearizable; larger K speculates more). The
// inner type must be deterministic — stabilized re-execution replays the
// agreed order and a non-deterministic type would make responses
// ambiguous. name is the registry spelling (it should carry the :K
// parameter when one was given, so reports and repro commands round-trip).
func New(name string, inner spec.Object, batch int64) (*Impl, error) {
	if batch < 1 {
		return nil, fmt.Errorf("stablog: promotion batch %d out of range (want >= 1)", batch)
	}
	if inner.Type == nil {
		return nil, fmt.Errorf("stablog: inner object has nil type")
	}
	if !inner.Type.Deterministic() {
		return nil, fmt.Errorf("stablog: inner type %s is non-deterministic; re-execution needs a unique agreed order", inner.Type.Name())
	}
	return &Impl{name: name, inner: inner, batch: batch}, nil
}

// Name implements machine.Impl.
func (im *Impl) Name() string { return im.name }

// Spec implements machine.Impl.
func (im *Impl) Spec() spec.Object { return im.inner }

// Bases implements machine.Impl: one linearizable append-only log.
func (im *Impl) Bases() []machine.Base {
	return []machine.Base{{Name: "L", Obj: spec.NewObject(spec.OpLog{})}}
}

// NewProcess implements machine.Impl.
func (im *Impl) NewProcess(p, n int) machine.Process {
	return &proc{
		typ:       im.inner.Type,
		batch:     im.batch,
		replica:   im.inner.Init,
		specState: im.inner.Init,
	}
}

// Programme counters.
const (
	pcIdle   = iota // no operation in flight; next step appends
	pcAppend        // waiting for the append's position
	pcScan          // catching up: waiting for read(scan)
)

// proc is one process's programme. Local state across operations: the
// stable frontier (log prefix promoted into replica), the replica itself,
// and the speculative state (replica plus the process's own pending
// appends in local order).
type proc struct {
	typ   spec.Type
	batch int64

	frontier  int64      // replica == init · log[0:frontier)
	replica   spec.State // state after the stable prefix
	specState spec.State // replica ⊕ own pending speculative ops
	pending   int64      // own appends past frontier, applied to specState

	pc   int
	code int64 // encoded current op
	pos  int64 // current op's log position
	scan int64 // next log index to re-execute during catch-up
	resp int64 // agreed-order response captured at scan == pos
}

// Begin implements machine.Process.
func (m *proc) Begin(op spec.Op) {
	code, err := spec.EncodeOpWord(op)
	if err != nil {
		panic(fmt.Sprintf("stablog: %v (workload op does not match the implemented type?)", err))
	}
	m.code = code
	m.pc = pcIdle
}

// Step implements machine.Process.
func (m *proc) Step(resp int64) machine.Action {
	switch m.pc {
	case pcIdle:
		m.pc = pcAppend
		return machine.Invoke(0, spec.MakeOp1(spec.MethodAppend, m.code))
	case pcAppend:
		m.pos = resp
		if m.pos+1-m.frontier >= m.batch {
			// Stabilize: re-execute [frontier, pos] in agreed order.
			m.scan = m.frontier
			m.pc = pcScan
			return machine.Invoke(0, spec.MakeOp1(spec.MethodRead, m.scan))
		}
		// Speculate: answer from the local state, blind to the gap.
		out := m.apply(m.specState, m.code)
		m.specState = out.Next
		m.pending++
		m.pc = pcIdle
		return machine.Return(out.Resp)
	case pcScan:
		// resp is the entry at position scan — present for sure, since the
		// log already holds our own entry at pos >= scan.
		out := m.apply(m.replica, resp)
		m.replica = out.Next
		if m.scan == m.pos {
			m.resp = out.Resp
		}
		m.scan++
		if m.scan <= m.pos {
			return machine.Invoke(0, spec.MakeOp1(spec.MethodRead, m.scan))
		}
		// Rebase: the agreed prefix supersedes every speculation.
		m.frontier = m.pos + 1
		m.pending = 0
		m.specState = m.replica
		m.pc = pcIdle
		return machine.Return(m.resp)
	default:
		panic(fmt.Sprintf("stablog: Step in unknown state %d", m.pc))
	}
}

// apply decodes and applies one log entry to a state; entries were encoded
// by Begin, so a failure here is a programming error.
func (m *proc) apply(st spec.State, code int64) spec.Outcome {
	op, err := spec.DecodeOpWord(code)
	if err != nil {
		panic(fmt.Sprintf("stablog: %v", err))
	}
	out, n := m.typ.Step(st, op, 0)
	if n == 0 {
		panic(fmt.Sprintf("stablog: %s not applicable to %s state %v", op, m.typ.Name(), st))
	}
	return out
}

// CloneInto implements machine.Process. States are immutable values (int64 or
// string), so a value copy is a deep copy.
func (m *proc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[proc](dst)
	*cp = *m
	return cp
}

// AppendFingerprint implements machine.Fingerprinter.
func (m *proc) AppendFingerprint(b []byte) ([]byte, bool) {
	b = spec.AppendFPInt(b, int64(m.pc))
	b = spec.AppendFPInt(b, m.frontier)
	b = spec.AppendFPInt(b, m.pending)
	b = spec.AppendFPInt(b, m.code)
	b = spec.AppendFPInt(b, m.pos)
	b = spec.AppendFPInt(b, m.scan)
	b = spec.AppendFPInt(b, m.resp)
	return spec.AppendFPState(spec.AppendFPState(b, m.replica), m.specState), true
}
