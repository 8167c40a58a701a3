// Package live executes real goroutine concurrency against genuinely shared
// objects — the regime every other layer of this repository deliberately
// avoids. sim/explore drive cooperative, single-threaded schedules so that
// executions are reproducible and exhaustively checkable; live trades that
// control for actual parallelism: N client goroutines hammer one shared
// object, per-client sharded recorders capture the history without a global
// lock on the hot path, and an online windowed monitor (check.Incremental)
// t-lin-checks the merged history as it grows. When the monitor flags a
// window, the shrinker (Shrink) minimizes it by delta debugging and replays
// the result inside the deterministic simulator (sim.Replay) — the bridge
// back from the live world to the model checker.
//
// # Tickets and the recorded history
//
// One shared atomic counter sequences the run, and it counts commits only:
// an operation draws its commit ticket at the object's linearization point
// (inside the mutex for SerializedImpl; for AtomicFetchInc the draw IS the
// fetch-add — a fetch&increment is itself a sequencer, so the ticket is
// the response). Invocation events do not draw tickets; they carry a
// seq.Load() stamp taken at operation start and are merged into the gap
// after the stamped commit (ties broken by client id). The merged history
// orders response events by commit ticket and places each invocation after
// every commit its stamp proves it followed.
//
// Real-time precedence survives the encoding soundly: a recorded edge
// "operation X precedes operation Y" means X's commit ticket is at most
// Y's invocation stamp, i.e. X's linearization happened before Y loaded
// the sequencer at its start — a true wall-time precedence. (Some true
// precedences are lost when a stamp reads low; losing edges only weakens
// the check.) A correct implementation therefore always has its own commit
// order as a linearization witness and the monitor never raises a false
// alarm; the commit order of a buggy implementation fails to serialize,
// which is exactly what the monitor catches.
//
// # Reproducibility
//
// True concurrency makes the interleaving schedule-dependent, so two live
// runs of the same seed need not agree. What the seed pins down is
// everything *except* the race outcomes: per-client operation streams are
// deterministic RNG streams, and response choices of eventually
// linearizable objects are pure functions of (seed, commit ticket). The
// recorded commit order therefore determines the entire run: Verify
// re-executes a merged history serially, re-deriving every response, and
// must find each one recorded — the reproducibility contract the fuzz,
// shrink and recovery layers build on.
package live

import (
	"fmt"
	"sync/atomic"

	"github.com/elin-go/elin/internal/spec"
)

// Object is a concurrency-safe shared object: many client goroutines call
// Apply simultaneously. Implementations draw the operation's commit ticket
// from seq at their linearization point (see the package comment) and must
// be deterministic functions of the commit order, so that Verify (and
// Resume) can re-derive every response from a recorded run.
type Object interface {
	// Name is the object's name in recorded histories.
	Name() string
	// Spec is the sequential specification recorded histories are checked
	// against.
	Spec() spec.Object
	// Apply performs op for client proc, returning the response and the
	// commit ticket. seq is the run's commit sequencer: Apply must draw the
	// ticket (seq.Add(1)) exactly once, at the operation's linearization
	// point, and the response must be a deterministic function of the
	// object's commit history in ticket order.
	Apply(proc int, op spec.Op, seq *atomic.Uint64) (resp int64, ticket uint64, err error)
	// Fresh returns a new instance with the same parameters and pristine
	// state (the replay, resume and fuzz layers re-execute against it), or
	// the error that rebuilding it met.
	Fresh() (Object, error)
}

// ----------------------------------------------------------------------------
// AtomicFetchInc: the first lock-free "production" object.

// AtomicFetchInc is a lock-free linearizable fetch&increment over one
// machine word: Apply is a single atomic fetch-add, the hardware analog of
// the paper's CAS-counter implementation with the retry loop compiled
// away. The fetch-add is performed directly on the run's commit sequencer:
// a fetch&increment is itself a sequencer, so the linearization point, the
// commit ticket and the response are one atomic operation — which is what
// makes the recorded run exactly commit-deterministic (Verify re-derives
// every response from the ticket alone).
type AtomicFetchInc struct {
	name string
	init int64
}

var _ Object = (*AtomicFetchInc)(nil)

// NewAtomicFetchInc returns a lock-free counter starting at init.
func NewAtomicFetchInc(name string, init int64) *AtomicFetchInc {
	return &AtomicFetchInc{name: name, init: init}
}

// Name implements Object.
func (c *AtomicFetchInc) Name() string { return c.name }

// Spec implements Object.
func (c *AtomicFetchInc) Spec() spec.Object {
	return spec.NewObject(spec.FetchInc{InitVal: c.init})
}

// Fresh implements Object.
func (c *AtomicFetchInc) Fresh() (Object, error) { return NewAtomicFetchInc(c.name, c.init), nil }

// Apply implements Object.
func (c *AtomicFetchInc) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	if op.Method != spec.MethodFetchInc || op.NArgs != 0 {
		return 0, 0, fmt.Errorf("live: %s rejects %s (fetchinc only)", c.name, op)
	}
	ticket := seq.Add(1)
	return c.init + int64(ticket) - 1, ticket, nil
}

// ----------------------------------------------------------------------------
// JunkFetchInc: the injected-bug adapter.

// JunkFetchInc is a deliberately broken counter: it behaves like
// AtomicFetchInc until its value reaches Stick, then loses every further
// increment and hands the same value out forever — duplicate responses that
// no serialization explains. It exists to prove the monitoring pipeline
// end to end: the online monitor must flag it, the shrinker must minimize
// the window, and the sim replay must refuse the duplicate.
type JunkFetchInc struct {
	name  string
	stick int64
}

var _ Object = (*JunkFetchInc)(nil)

// NewJunkFetchInc returns a counter that sticks at the given value.
func NewJunkFetchInc(name string, stick int64) *JunkFetchInc {
	return &JunkFetchInc{name: name, stick: stick}
}

// Name implements Object.
func (c *JunkFetchInc) Name() string { return c.name }

// Spec implements Object: it claims to be a correct counter — the claim the
// monitor falsifies.
func (c *JunkFetchInc) Spec() spec.Object { return spec.NewObject(spec.FetchInc{}) }

// Fresh implements Object.
func (c *JunkFetchInc) Fresh() (Object, error) { return NewJunkFetchInc(c.name, c.stick), nil }

// Apply implements Object.
func (c *JunkFetchInc) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	if op.Method != spec.MethodFetchInc || op.NArgs != 0 {
		return 0, 0, fmt.Errorf("live: %s rejects %s (fetchinc only)", c.name, op)
	}
	tick := seq.Add(1)
	val := int64(tick) - 1
	if val > c.stick {
		val = c.stick
	}
	return val, tick, nil
}
