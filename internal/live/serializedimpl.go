package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// implMaxSteps bounds one operation's step-machine execution under
// SerializedImpl. The live regime runs every operation solo inside the
// mutex, so any obstruction-free implementation terminates quickly; an
// implementation that needs help from other processes to finish would spin
// here forever, and surfaces as an error instead.
const implMaxSteps = 1 << 20

// SerializedImpl runs any machine.Impl — the step-machine implementations
// the simulator and model checker drive — under the live runtime, by
// serializing whole operations under a mutex: each Apply runs the client's
// programme to completion against the implementation's base objects inside
// one critical section. This is the bridge that lets one scenario execute
// on every engine: the same implementation value explored exhaustively by
// package explore and simulated by package sim is hammered by real
// goroutine clients here.
//
// Because the whole operation is one critical section, the commit ticket
// (drawn at entry) is the linearization point and mutex order equals
// ticket order. Responses of eventually linearizable bases are chosen as a
// pure function of (seed, ticket, step index), so a recorded run is a
// deterministic function of its commit order and Verify re-derives every
// response — the package's reproducibility contract.
//
// Note the regime difference: under the mutex, base-object actions of
// different operations never interleave, so implementation-level races the
// model checker can reach (interleaved CAS loops, overlapping register
// reads) do not occur live. What remains observable is the weak-consistency
// behaviour of eventually linearizable bases before stabilization — which
// is exactly the behaviour the online monitor quantifies.
type SerializedImpl struct {
	impl     machine.Impl
	clients  int
	policies base.PolicyFor
	seed     int64
	opts     check.Options

	mu    sync.Mutex
	bases []base.Object
	procs []machine.Process
	cands []int64 // candidate scratch, reused under mu
}

var _ Object = (*SerializedImpl)(nil)

// NewSerializedImpl wraps impl for clients goroutine clients. Eventually
// linearizable bases receive their stabilization policy from policies
// (nil: all Immediate, i.e. atomic from the start); seed pins their
// response choices.
func NewSerializedImpl(impl machine.Impl, clients int, policies base.PolicyFor, seed int64, opts check.Options) (*SerializedImpl, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("live: SerializedImpl needs at least one client, got %d", clients)
	}
	if err := machine.Validate(impl, clients); err != nil {
		return nil, err
	}
	s := &SerializedImpl{impl: impl, clients: clients, policies: policies, seed: seed, opts: opts}
	bases, err := base.Instantiate(impl.Bases(), policies, opts)
	if err != nil {
		return nil, err
	}
	s.bases = bases
	s.procs = make([]machine.Process, clients)
	for p := range s.procs {
		s.procs[p] = impl.NewProcess(p, clients)
	}
	return s, nil
}

// Name implements Object.
func (s *SerializedImpl) Name() string { return s.impl.Name() }

// Spec implements Object.
func (s *SerializedImpl) Spec() spec.Object { return s.impl.Spec() }

// Fresh implements Object: construction can fail (recovery rebuilds
// objects under injected faults), and the error is returned for the
// caller to report.
func (s *SerializedImpl) Fresh() (Object, error) {
	cp, err := NewSerializedImpl(s.impl, s.clients, s.policies, s.seed, s.opts)
	if err != nil {
		return nil, fmt.Errorf("live: SerializedImpl.Fresh: %w", err)
	}
	return cp, nil
}

// Apply implements Object: the client's programme runs to completion inside
// one critical section, so the ticket drawn at entry is the operation's
// linearization point.
func (s *SerializedImpl) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	if proc < 0 || proc >= s.clients {
		return 0, 0, fmt.Errorf("live: %s built for %d clients, got client %d", s.impl.Name(), s.clients, proc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ticket := seq.Add(1)
	p := s.procs[proc]
	p.Begin(op)
	var resp int64
	for step := 0; ; step++ {
		if step >= implMaxSteps {
			return 0, 0, fmt.Errorf("live: %s operation %s did not complete within %d solo steps",
				s.impl.Name(), op, implMaxSteps)
		}
		act := p.Step(resp)
		if act.Kind == machine.ActReturn {
			return act.Ret, ticket, nil
		}
		if act.Obj < 0 || act.Obj >= len(s.bases) {
			return 0, 0, fmt.Errorf("live: %s action on unknown base %d", s.impl.Name(), act.Obj)
		}
		obj := s.bases[act.Obj]
		cands, err := obj.AppendCandidates(s.cands[:0], proc, act.Op)
		s.cands = cands
		if err != nil {
			return 0, 0, err
		}
		r := cands[0]
		if len(cands) > 1 {
			r = cands[pickIndexStep(s.seed, ticket, step, len(cands))]
		}
		if err := obj.Commit(proc, act.Op, r); err != nil {
			return 0, 0, err
		}
		resp = r
	}
}

// pickIndexStep chooses a weak-consistency candidate as a pure function of
// (seed, ticket, step index): a splitmix64 step over the combined value, so
// every base action of every operation draws an independent, reproducible
// choice. The step term vanishes at step 0, so a one-step implementation
// (a passthrough over one base object) draws a pure function of (seed,
// ticket).
func pickIndexStep(seed int64, ticket uint64, step, n int) int {
	x := uint64(seed) ^ (ticket * 0x9E3779B97F4A7C15) ^ (uint64(step) * 0xD1B54A32D192ED03)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}
