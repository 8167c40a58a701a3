// Package stabilize implements the construction in the proof of
// Proposition 18 — the paper's headline paradox: any eventually
// linearizable, non-blocking implementation A of a fetch&increment object
// from linearizable base objects yields a fully linearizable implementation
// A′ of fetch&increment from the same base objects.
//
// The construction, mechanized:
//
//  1. Find a stable configuration C of A's execution tree: one from which
//     every (bounded) extension's history is |αC|-linearizable. Claim 1 of
//     the proof guarantees a stable configuration exists whenever A is
//     eventually linearizable — even though the stabilization point may
//     differ from execution to execution.
//  2. Let every process run solo to complete its pending operation
//     (reaching C_idle), then run one process p solo until some operation
//     op0 returns a value equal to the number of fetch&inc operations
//     invoked before op0 (the proof shows this must happen, else the
//     execution could not be t-linearized).
//  3. Capture the configuration C0 at the end of op0: every base object's
//     state and every process's local variables. Let v0 be the number of
//     operations invoked up to and including op0.
//  4. A′ is A with base objects initialized to their states in C0,
//     processes initialized to their local states in C0, and every response
//     decremented by v0.
//
// The output implementation can be exhaustively re-checked for full
// linearizability (package explore); the experiments do exactly that.
package stabilize

import (
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Config tunes the construction's bounded searches.
type Config struct {
	// NumProcs is the number of processes n (the construction is for a
	// fixed n, as in the paper).
	NumProcs int
	// OpsPerProc sizes the exploration workload; it must be large enough
	// for the solo phase to find op0 (a handful past the implementation's
	// unstable region).
	OpsPerProc int
	// SearchDepth bounds the breadth-first stable-configuration search.
	SearchDepth int
	// VerifyDepth bounds the per-configuration stability verification.
	VerifyDepth int
	// SoloProc is the process run solo to find op0 (default 0).
	SoloProc int
	// MaxSoloOps bounds the solo phase (default OpsPerProc).
	MaxSoloOps int
	// CheckOpts configures the t-linearizability checks.
	CheckOpts check.Options
	// Workers is the exploration worker count for the stable search (the
	// construction's dominant cost): 0 means GOMAXPROCS, 1 forces the
	// sequential reference engine. The search result is identical for
	// every worker count.
	Workers int
}

// Report documents the construction's run.
type Report struct {
	// StableDepth is the depth of the stable configuration C found.
	StableDepth int
	// StableT is |αC| in implemented-history events.
	StableT int
	// NodesSearched counts configurations examined by the stable search.
	NodesSearched int
	// SoloOps is the number of solo operations run before op0.
	SoloOps int
	// V0 is the response offset of A′ (operations invoked up to and
	// including op0).
	V0 int64
	// BaseStates are the captured base-object states of C0.
	BaseStates map[string]spec.State
}

// Transform runs the Proposition 18 construction on impl, which must
// implement fetch&increment from linearizable, deterministic base objects.
func Transform(impl machine.Impl, cfg Config) (*Impl, *Report, error) {
	if _, ok := impl.Spec().Type.(spec.FetchInc); !ok {
		return nil, nil, fmt.Errorf("stabilize: %s implements %s; the Proposition 18 construction is for fetch&increment",
			impl.Name(), impl.Spec().Type.Name())
	}
	for _, b := range impl.Bases() {
		if b.Eventually {
			return nil, nil, fmt.Errorf("stabilize: base %q of %s is eventually linearizable; Proposition 18 requires linearizable base objects",
				b.Name, impl.Name())
		}
	}
	if cfg.NumProcs <= 0 {
		return nil, nil, fmt.Errorf("stabilize: NumProcs must be positive")
	}
	if cfg.SoloProc < 0 || cfg.SoloProc >= cfg.NumProcs {
		return nil, nil, fmt.Errorf("stabilize: SoloProc %d out of range", cfg.SoloProc)
	}
	if cfg.MaxSoloOps <= 0 {
		cfg.MaxSoloOps = cfg.OpsPerProc
	}

	workload := sim.UniformWorkload(cfg.NumProcs, cfg.OpsPerProc, spec.MakeOp(spec.MethodFetchInc))
	root, err := sim.NewSystem(impl, workload, nil, cfg.CheckOpts, false)
	if err != nil {
		return nil, nil, fmt.Errorf("stabilize: %w", err)
	}

	// Step 1: find a stable configuration (Claim 1).
	stable, err := explore.FindStable(root, cfg.SearchDepth, cfg.VerifyDepth,
		explore.Config{Workers: cfg.Workers}, cfg.CheckOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("stabilize: %w", err)
	}
	sys := stable.System
	rep := &Report{
		StableDepth:   stable.Depth,
		StableT:       stable.T,
		NodesSearched: stable.NodesSearched,
	}

	// Step 2a: reach C_idle — run each process solo until its pending
	// operation completes. Bases are linearizable, so each Advance has a
	// single branch.
	for p := 0; p < cfg.NumProcs; p++ {
		for guard := 0; sys.Running(p); guard++ {
			if guard > 1<<14 {
				return nil, nil, fmt.Errorf("stabilize: process p%d did not complete its operation solo (not non-blocking?)", p)
			}
			if err := sys.Advance(p, 0); err != nil {
				return nil, nil, fmt.Errorf("stabilize: drain p%d: %w", p, err)
			}
		}
	}

	// Step 2b: run SoloProc until op0 returns the number of operations
	// invoked before it.
	p := cfg.SoloProc
	found := false
	for k := 0; k < cfg.MaxSoloOps; k++ {
		if sys.OpsBegun(p) >= cfg.OpsPerProc {
			return nil, nil, fmt.Errorf("stabilize: solo workload exhausted after %d ops; increase OpsPerProc", k)
		}
		invBefore := int64(len(sys.History().Operations()))
		resp, err := runOneOpSolo(sys, p)
		if err != nil {
			return nil, nil, fmt.Errorf("stabilize: solo op %d: %w", k, err)
		}
		rep.SoloOps = k + 1
		if resp == invBefore {
			rep.V0 = invBefore + 1 // operations invoked up to and including op0
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("stabilize: no op0 within %d solo operations (is %s eventually linearizable?)",
			cfg.MaxSoloOps, impl.Name())
	}

	// Step 3: capture C0.
	rep.BaseStates = sys.BaseStates()
	procs := make([]machine.Process, cfg.NumProcs)
	for q := 0; q < cfg.NumProcs; q++ {
		procs[q] = sys.Proc(q).CloneInto(nil)
	}

	// Step 4: A′.
	bases := impl.Bases()
	for i := range bases {
		st, ok := rep.BaseStates[bases[i].Name]
		if !ok {
			return nil, nil, fmt.Errorf("stabilize: no captured state for base %q", bases[i].Name)
		}
		bases[i].Obj.Init = st
	}
	out := &Impl{
		inner: impl,
		bases: bases,
		procs: procs,
		v0:    rep.V0,
	}
	return out, rep, nil
}

// runOneOpSolo advances process p until its next operation completes and
// returns the operation's response.
func runOneOpSolo(sys *sim.System, p int) (int64, error) {
	before := sys.OpsBegun(p)
	for guard := 0; ; guard++ {
		if guard > 1<<14 {
			return 0, fmt.Errorf("operation did not complete solo (not non-blocking?)")
		}
		if err := sys.Advance(p, 0); err != nil {
			return 0, err
		}
		if sys.OpsBegun(p) > before && !sys.Running(p) {
			h := sys.History()
			return h.Event(h.Len() - 1).Resp, nil
		}
	}
}

// Impl is the constructed implementation A′.
type Impl struct {
	inner machine.Impl
	bases []machine.Base
	procs []machine.Process
	v0    int64
}

var _ machine.Impl = (*Impl)(nil)

// Name implements machine.Impl.
func (im *Impl) Name() string { return im.inner.Name() + "-stabilized" }

// Spec implements machine.Impl: A′ implements the same fetch&increment,
// from its canonical initial value, because responses are offset by v0.
func (im *Impl) Spec() spec.Object { return im.inner.Spec() }

// Bases implements machine.Impl: the same base objects, initialized to
// their states in C0.
func (im *Impl) Bases() []machine.Base {
	out := make([]machine.Base, len(im.bases))
	copy(out, im.bases)
	return out
}

// V0 returns the response offset.
func (im *Impl) V0() int64 { return im.v0 }

// NewProcess implements machine.Impl. The construction fixes the process
// count; asking for a process outside the captured set panics (programmer
// error: A′ is an n-process implementation for the n used in Transform).
func (im *Impl) NewProcess(p, n int) machine.Process {
	if p < 0 || p >= len(im.procs) {
		panic(fmt.Sprintf("stabilize: A′ was constructed for %d processes, got p%d", len(im.procs), p))
	}
	return &offsetProc{inner: im.procs[p].CloneInto(nil), v0: im.v0}
}

type offsetProc struct {
	inner machine.Process
	v0    int64
}

func (c *offsetProc) Begin(op spec.Op) { c.inner.Begin(op) }

func (c *offsetProc) Step(resp int64) machine.Action {
	act := c.inner.Step(resp)
	if act.Kind == machine.ActReturn {
		return machine.Return(act.Ret - c.v0)
	}
	return act
}

func (c *offsetProc) CloneInto(dst machine.Process) machine.Process {
	cp := machine.Reuse[offsetProc](dst)
	cp.inner = c.inner.CloneInto(cp.inner)
	cp.v0 = c.v0
	return cp
}

// AppendFingerprint implements machine.Fingerprinter; it reports false
// when the inner programme is not a Fingerprinter.
func (c *offsetProc) AppendFingerprint(b []byte) ([]byte, bool) {
	f, ok := c.inner.(machine.Fingerprinter)
	if !ok {
		return b, false
	}
	b, ok = f.AppendFingerprint(b)
	if !ok {
		return b, false
	}
	return spec.AppendFPInt(b, c.v0), true
}
