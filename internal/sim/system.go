// Package sim executes implementations (package machine) against live base
// objects (package base) and records the resulting histories. The central
// type is System — one configuration of the asynchronous shared-memory
// model: process programmes plus base-object states. Systems support
// in-place traversal (Advance/Undo, which is what makes exhaustive
// exploration in package explore cheap) and deep copying (Clone, which is
// what makes the Proposition 18 configuration capture possible).
package sim

import (
	"fmt"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// System is a live configuration: an implementation, its base objects, its
// process programmes, per-process progress through a workload, and the
// histories recorded so far. One Advance call performs one atomic step of
// one process, exactly the granularity of the paper's execution trees.
//
// Systems support two traversal styles. Clone captures an independent copy
// (for configurations a caller genuinely keeps: Proposition 18 witnesses,
// valency reports). For exhaustive exploration, EnableUndo switches on
// per-step undo records so a single mutable System can walk an execution
// tree with Advance/Undo instead of allocating a deep copy per edge.
type System struct {
	impl     machine.Impl
	bases    []base.Object
	procs    []machine.Process
	running  []bool  // process is mid-operation
	nextResp []int64 // response to feed the process's next Step
	opIdx    []int   // operations begun per process
	workload [][]spec.Op
	hist     *history.History
	baseHist *history.History // nil unless base recording enabled

	// stabilizedAt records, per eventually linearizable base object, the
	// implemented-level event count at which it stabilized (-1 while
	// unstabilized).
	stabilizedAt map[string]int
	steps        int

	// stateID uniquely identifies the current configuration along the
	// Advance/Undo path: every Advance assigns a fresh id, every Undo
	// restores the pre-step id. The candidate memo is tagged with it.
	stateID uint64
	nextID  uint64

	// actCache holds each process's next action. The probe programme is
	// a copy of the process's programme, begun if an operation starts and
	// stepped once, and Advance installs it instead of re-stepping the
	// live programme. An entry reads only its process's programme,
	// running flag, operation index and pending response, and those
	// change only when that process advances: so an entry stays valid
	// until its process moves, an Advance empties it, and the Undo of
	// that Advance restores it from the undo record, whose probe is the
	// programme the Undo uninstalls. A node costs one step, for the
	// process that moved.
	actCache []actCache
	// spare holds, per process, programmes nothing references, which
	// probes are copied into: a probe an Undo discards and, without undo,
	// the programme an Advance displaces.
	spare [][]machine.Process

	// candScratch memoizes the most recent candidate set (candTagProc at
	// candTagID). Advance(p, branch) immediately after Candidates/
	// CandidatesAppend reuses it instead of recomputing.
	candScratch []int64
	candTagProc int
	candTagID   uint64

	// undo is the LIFO step log populated while undoOn.
	undo   []undoRec
	undoOn bool

	// detCheck re-verifies programme determinism on every probe: see
	// EnableDeterminismCheck.
	detCheck bool

	fpBuf []byte // scratch for Fingerprint
}

// actCache memoizes one process's next action.
type actCache struct {
	act    machine.Action
	begins bool
	probe  machine.Process // the programme after taking act; nil while empty
}

// undoRec records everything one Advance changed.
type undoRec struct {
	proc         int
	prevProc     machine.Process
	act          machine.Action // with begins, p's cache entry before the step
	begins       bool
	prevRunning  bool
	prevOpIdx    int
	prevNextResp int64
	prevStateID  uint64
	histLen      int
	baseHistLen  int
	baseIdx      int // -1 when the step was a return action
	baseSnap     base.Snapshot
	stabName     string // base that stabilized on this step ("" if none)
}

// NewSystem builds a fresh configuration. Workload lists the operations
// each process performs in order; policies assigns stabilization policies
// to eventually linearizable bases (nil means all Immediate); recordBase
// enables base-level history recording.
func NewSystem(impl machine.Impl, workload [][]spec.Op, policies base.PolicyFor, opts check.Options, recordBase bool) (*System, error) {
	n := len(workload)
	if n == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if err := machine.Validate(impl, n); err != nil {
		return nil, err
	}
	objs, err := base.Instantiate(impl.Bases(), policies, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: instantiate bases for %s: %w", impl.Name(), err)
	}
	s := &System{
		impl:         impl,
		bases:        objs,
		procs:        make([]machine.Process, n),
		running:      make([]bool, n),
		nextResp:     make([]int64, n),
		opIdx:        make([]int, n),
		workload:     workload,
		hist:         history.New(),
		stabilizedAt: make(map[string]int),
		stateID:      1,
		nextID:       1,
		actCache:     make([]actCache, n),
		spare:        make([][]machine.Process, n),
		candTagProc:  -1,
	}
	if recordBase {
		s.baseHist = history.New()
	}
	for p := 0; p < n; p++ {
		s.procs[p] = impl.NewProcess(p, n)
	}
	for _, b := range objs {
		if ev, ok := b.(*base.Eventual); ok && !ev.Stabilized() {
			s.stabilizedAt[b.Name()] = -1
		}
	}
	return s, nil
}

// NumProcs returns the number of processes.
func (s *System) NumProcs() int { return len(s.procs) }

// Impl returns the implementation under execution.
func (s *System) Impl() machine.Impl { return s.impl }

// Steps returns the number of Advance calls performed.
func (s *System) Steps() int { return s.steps }

// History returns the implemented-level history recorded so far. The
// returned value is live; callers must not mutate it.
func (s *System) History() *history.History { return s.hist }

// BaseHistory returns the base-level history (nil if recording was off).
func (s *System) BaseHistory() *history.History { return s.baseHist }

// StabilizedAt returns, per eventually linearizable base, the
// implemented-level event index at which it stabilized (-1 if it has not).
// The map is a fresh copy.
func (s *System) StabilizedAt() map[string]int {
	out := make(map[string]int, len(s.stabilizedAt))
	for k, v := range s.stabilizedAt {
		out[k] = v
	}
	return out
}

// BaseStates returns the current state of every base object by name.
func (s *System) BaseStates() map[string]spec.State {
	out := make(map[string]spec.State, len(s.bases))
	for _, b := range s.bases {
		out[b.Name()] = b.State()
	}
	return out
}

// Bases returns the live base objects (callers must not mutate them).
func (s *System) Bases() []base.Object { return s.bases }

// Proc returns process p's programme (callers must not step it directly).
func (s *System) Proc(p int) machine.Process { return s.procs[p] }

// CanStep reports whether process p can take a step: mid-operation, or
// idle with workload remaining. It is the allocation-free primitive behind
// Enabled and the one exploration loops iterate with.
func (s *System) CanStep(p int) bool {
	return s.running[p] || s.opIdx[p] < len(s.workload[p])
}

// EnabledCount returns the number of processes that can take a step.
func (s *System) EnabledCount() int {
	n := 0
	for p := range s.procs {
		if s.CanStep(p) {
			n++
		}
	}
	return n
}

// AppendEnabled appends the enabled process ids (ascending) to buf and
// returns the extended slice. Callers on hot paths pass a reused buffer.
func (s *System) AppendEnabled(buf []int) []int {
	for p := range s.procs {
		if s.CanStep(p) {
			buf = append(buf, p)
		}
	}
	return buf
}

// Enabled returns the processes that can take a step: mid-operation, or
// idle with workload remaining. The slice is freshly allocated; hot paths
// use AppendEnabled or CanStep instead.
func (s *System) Enabled() []int {
	if s.EnabledCount() == 0 {
		return nil
	}
	return s.AppendEnabled(make([]int, 0, len(s.procs)))
}

// Done reports whether every process has completed its workload.
func (s *System) Done() bool {
	for p := range s.procs {
		if s.CanStep(p) {
			return false
		}
	}
	return true
}

// OpsBegun returns the number of operations process p has begun.
func (s *System) OpsBegun(p int) int { return s.opIdx[p] }

// Running reports whether process p is mid-operation.
func (s *System) Running(p int) bool { return s.running[p] }

// nextActionCached returns process p's cache entry, computing it if p has
// moved since it was last filled: p's programme is copied into a spare
// one, Begin'd if a new operation starts, and stepped once; the stepped
// copy is kept so Advance can install it directly instead of re-stepping
// the live programme.
func (s *System) nextActionCached(p int) (*actCache, error) {
	if p < 0 || p >= len(s.procs) {
		return nil, fmt.Errorf("sim: no process p%d", p)
	}
	c := &s.actCache[p]
	if c.probe != nil {
		return c, nil
	}
	if !s.CanStep(p) {
		return nil, fmt.Errorf("sim: process p%d has no work", p)
	}
	probe, act := s.stepCopy(p)
	if act.Kind == machine.ActInvoke && (act.Obj < 0 || act.Obj >= len(s.bases)) {
		return nil, fmt.Errorf("sim: %s p%d invokes unknown base %d",
			s.impl.Name(), p, act.Obj)
	}
	if s.detCheck {
		// Step a second, independent copy identically and compare: the
		// machine.Process contract requires Step to be a deterministic
		// function of the programme state, and the advance/undo engine
		// silently assumes it (the stepped probe is installed without
		// re-stepping the live programme). A divergence here means the
		// implementation draws on state outside its CloneInto — shared
		// pointers, global randomness, map iteration — and every
		// exploration result over it is suspect.
		probe2, act2 := s.stepCopy(p)
		s.spare[p] = append(s.spare[p], probe2)
		if act2 != act {
			return nil, fmt.Errorf(
				"sim: %s p%d is nondeterministic: identical probes stepped to %v and %v",
				s.impl.Name(), p, act, act2)
		}
	}
	*c = actCache{act: act, begins: !s.running[p], probe: probe}
	return c, nil
}

// stepCopy copies p's programme into a spare one (a new one when there is
// none), begins p's next operation on the copy when p is idle, and steps
// it once with p's pending response.
func (s *System) stepCopy(p int) (machine.Process, machine.Action) {
	var dst machine.Process
	if free := s.spare[p]; len(free) > 0 {
		dst = free[len(free)-1]
		s.spare[p] = free[:len(free)-1]
	}
	probe := s.procs[p].CloneInto(dst)
	if !s.running[p] {
		probe.Begin(s.workload[p][s.opIdx[p]])
	}
	return probe, probe.Step(s.nextResp[p])
}

// NextAction returns the action process p would take if scheduled now,
// without advancing the system, plus whether scheduling p would begin a new
// operation. The system is unchanged (the probe runs on a copy of p's
// programme, which is cached and installed by p's next Advance).
func (s *System) NextAction(p int) (machine.Action, bool, error) {
	c, err := s.nextActionCached(p)
	if err != nil {
		return machine.Action{}, false, err
	}
	return c.act, c.begins, nil
}

// memoCandidates computes the permitted responses for process p's next
// action c into the candidate memo and tags it with the configuration.
func (s *System) memoCandidates(p int, c *actCache) error {
	s.candTagProc = -1 // the buffer is overwritten: an error leaves no memo
	if c.act.Kind == machine.ActReturn {
		s.candScratch = append(s.candScratch[:0], c.act.Ret)
	} else {
		cands, err := s.bases[c.act.Obj].AppendCandidates(s.candScratch[:0], p, c.act.Op)
		s.candScratch = cands
		if err != nil {
			return err
		}
	}
	s.candTagProc, s.candTagID = p, s.stateID
	return nil
}

// CandidatesAppend appends the permitted responses for process p's next
// action to buf and returns the extended slice. Return actions have exactly
// one candidate; the first candidate of a base invocation is always the
// true (linearizable) response. The result is additionally memoized for the
// current configuration so that an immediately following Advance resolves
// its branch without recomputing the candidate set.
func (s *System) CandidatesAppend(p int, buf []int64) ([]int64, error) {
	c, err := s.nextActionCached(p)
	if err != nil {
		return nil, err
	}
	if err := s.memoCandidates(p, c); err != nil {
		return nil, err
	}
	return append(buf, s.candScratch...), nil
}

// Candidates returns the permitted responses for process p's next action as
// a fresh slice (safe to retain). Hot paths use CandidatesAppend with a
// reused buffer instead.
func (s *System) Candidates(p int) ([]int64, error) {
	return s.CandidatesAppend(p, nil)
}

// EnableUndo switches on per-step undo recording: every subsequent Advance
// pushes a record that Undo pops to restore the prior configuration.
// Exploration engines enable it on their working copy; long random runs
// (sim.Run) leave it off so the step log does not grow without bound.
func (s *System) EnableUndo() { s.undoOn = true }

// EnableDeterminismCheck makes every probe step its programme copy twice
// and compare the actions, turning a nondeterministic implementation (one
// whose Step depends on state outside its CloneInto) into a hard error
// instead of one arbitrary explored behaviour. It roughly doubles the
// per-step programme cost; exploration exposes it as
// Config.CheckDeterminism.
func (s *System) EnableDeterminismCheck() { s.detCheck = true }

// Undo reverts the most recent Advance recorded while undo was enabled:
// programme, progress counters, histories, the touched base object and the
// stabilization point are restored from the step's undo record, and so is
// the process's cache entry — the programme Undo uninstalls is exactly the
// probe of the step it reverts.
func (s *System) Undo() error {
	if len(s.undo) == 0 {
		return fmt.Errorf("sim: nothing to undo")
	}
	rec := &s.undo[len(s.undo)-1]
	p := rec.proc
	c := &s.actCache[p]
	if c.probe != nil {
		// A probe of the programme being uninstalled, never installed.
		s.spare[p] = append(s.spare[p], c.probe)
	}
	*c = actCache{act: rec.act, begins: rec.begins, probe: s.procs[p]}
	s.procs[p] = rec.prevProc
	s.running[p] = rec.prevRunning
	s.opIdx[p] = rec.prevOpIdx
	s.nextResp[p] = rec.prevNextResp
	s.hist.Truncate(rec.histLen)
	if s.baseHist != nil {
		s.baseHist.Truncate(rec.baseHistLen)
	}
	if rec.baseIdx >= 0 {
		s.bases[rec.baseIdx].Restore(rec.baseSnap)
	}
	if rec.stabName != "" {
		s.stabilizedAt[rec.stabName] = -1
	}
	s.steps--
	s.stateID = rec.prevStateID
	s.undo = s.undo[:len(s.undo)-1]
	return nil
}

// UndoTo pops undo records until at most n remain, restoring the
// configuration the system had when its undo log was n steps deep. Workers
// that seed themselves on a subtree (advance along a branch path, explore,
// return) use UndoTo(0) to rewind to the root in one call.
func (s *System) UndoTo(n int) error {
	if n < 0 {
		return fmt.Errorf("sim: UndoTo(%d): negative depth", n)
	}
	for len(s.undo) > n {
		if err := s.Undo(); err != nil {
			return err
		}
	}
	return nil
}

// Advance performs one atomic step of process p, resolving a base
// invocation with the branch-th candidate response. For a return action,
// branch must be 0. It records history events and stabilization points.
func (s *System) Advance(p, branch int) error {
	if s.candTagProc != p || s.candTagID != s.stateID {
		c, err := s.nextActionCached(p)
		if err != nil {
			return err
		}
		if err := s.memoCandidates(p, c); err != nil {
			return err
		}
	}
	if branch < 0 || branch >= len(s.candScratch) {
		return fmt.Errorf("sim: branch %d out of range (%d candidates)", branch, len(s.candScratch))
	}
	return s.AdvanceResp(p, s.candScratch[branch])
}

// AdvanceResp performs one atomic step of process p, resolving a base
// invocation with the given response, which must be one of the process's
// current Candidates — anything else is rejected, so a caller can never
// record an execution outside the paper's tree. The membership check is
// free when Candidates/CandidatesAppend was just called for p (the memo is
// still valid); otherwise the candidate set is recomputed. For a return
// action resp must equal the returned value.
func (s *System) AdvanceResp(p int, resp int64) error {
	c, err := s.nextActionCached(p)
	if err != nil {
		return err
	}
	act, begins := c.act, c.begins
	switch act.Kind {
	case machine.ActReturn:
		if resp != act.Ret {
			return fmt.Errorf("sim: return action yields %d, got response %d", act.Ret, resp)
		}
	case machine.ActInvoke:
		if s.candTagProc != p || s.candTagID != s.stateID {
			if err := s.memoCandidates(p, c); err != nil {
				return err
			}
		}
		member := false
		for _, r := range s.candScratch {
			if r == resp {
				member = true
				break
			}
		}
		if !member {
			return fmt.Errorf("sim: response %d is not a candidate (%v) for p%d on %s",
				resp, s.candScratch, p, s.bases[act.Obj].Name())
		}
	default:
		return fmt.Errorf("sim: invalid action kind %d", int(act.Kind))
	}
	var rec *undoRec
	if s.undoOn {
		// The record is written in place, in the slot the log grows into,
		// before anything changes: an error below leaves a step Undo
		// reverts.
		rec = s.pushUndo()
		rec.proc, rec.prevProc, rec.act, rec.begins = p, s.procs[p], act, begins
		rec.prevRunning, rec.prevOpIdx, rec.prevNextResp = s.running[p], s.opIdx[p], s.nextResp[p]
		rec.prevStateID, rec.histLen, rec.baseIdx, rec.stabName = s.stateID, s.hist.Len(), -1, ""
		if s.baseHist != nil {
			rec.baseHistLen = s.baseHist.Len()
		}
	} else {
		s.spare[p] = append(s.spare[p], s.procs[p])
	}
	// Install the probe: it is the live programme advanced by exactly this
	// step, so the live programme is never stepped twice. This leans on
	// the machine.Process contract that Step is deterministic; a
	// nondeterministic Step yields one arbitrary behaviour instead of an
	// error unless EnableDeterminismCheck is on.
	s.procs[p] = c.probe
	*c = actCache{}
	s.steps++
	s.nextID++
	s.stateID = s.nextID
	if begins {
		if err := s.hist.Invoke(p, s.impl.Name(), s.workload[p][s.opIdx[p]]); err != nil {
			return fmt.Errorf("sim: record invoke: %w", err)
		}
		s.opIdx[p]++
		s.running[p] = true
	}
	if act.Kind == machine.ActReturn {
		if err := s.hist.Respond(p, act.Ret); err != nil {
			return fmt.Errorf("sim: record respond: %w", err)
		}
		s.running[p] = false
		s.nextResp[p] = 0
		return nil
	}
	obj := s.bases[act.Obj]
	if rec != nil {
		rec.baseIdx = act.Obj
		rec.baseSnap = obj.Snapshot()
	}
	if err := obj.Commit(p, act.Op, resp); err != nil {
		return err
	}
	if s.baseHist != nil {
		if err := s.baseHist.Call(p, obj.Name(), act.Op, resp); err != nil {
			return fmt.Errorf("sim: record base call: %w", err)
		}
	}
	if ev, ok := obj.(*base.Eventual); ok {
		if at, tracked := s.stabilizedAt[obj.Name()]; tracked && at < 0 && ev.Stabilized() {
			s.stabilizedAt[obj.Name()] = s.hist.Len()
			if rec != nil {
				rec.stabName = obj.Name()
			}
		}
	}
	s.nextResp[p] = resp
	return nil
}

// pushUndo grows the undo log by one slot, reusing the one an Undo
// vacated when there is one, and returns it for the caller to overwrite.
func (s *System) pushUndo() *undoRec {
	if n := len(s.undo); n < cap(s.undo) {
		s.undo = s.undo[:n+1]
	} else {
		s.undo = append(s.undo, undoRec{})
	}
	return &s.undo[len(s.undo)-1]
}

// AppendConfigFingerprint appends an injective byte encoding of the
// configuration to b: per process the progress counters, pending-response
// and programme state, plus every base object's state (including, for
// eventually linearizable objects, the committed log the Definition 1
// candidate sets derive from). Recorded histories are deliberately
// excluded: two configurations with equal encodings have identical future
// behaviour, which is the equivalence the explore package's deduplication
// option merges on — the full encoding (not a hash of it) is what visited
// sets must compare, so a collision can never silently merge distinct
// configurations.
//
// The second result is false when some programme does not implement
// machine.Fingerprinter; deduplication is unavailable for such
// implementations.
func (s *System) AppendConfigFingerprint(b []byte) ([]byte, bool) {
	for p := range s.procs {
		f, ok := s.procs[p].(machine.Fingerprinter)
		if !ok {
			return b, false
		}
		flag := byte(0)
		if s.running[p] {
			flag = 1
		}
		b = spec.AppendFPInt(b, int64(p))
		b = append(b, flag)
		b = spec.AppendFPInt(b, int64(s.opIdx[p]))
		b = spec.AppendFPInt(b, s.nextResp[p])
		b, ok = f.AppendFingerprint(b)
		if !ok {
			return b, false
		}
	}
	for _, ob := range s.bases {
		b = ob.AppendFingerprint(b)
	}
	return b, true
}

// Fingerprint returns a 64-bit FNV-1a hash of AppendConfigFingerprint's
// encoding — a compact configuration digest for logging and tests. Exact
// deduplication compares the full encoding instead.
func (s *System) Fingerprint() (uint64, bool) {
	b, ok := s.AppendConfigFingerprint(s.fpBuf[:0])
	s.fpBuf = b
	if !ok {
		return 0, false
	}
	return spec.FNV64(b), true
}

// Clone returns a deep copy of the configuration (programmes, base objects,
// histories, progress counters). The copy starts with empty caches and an
// empty undo log.
func (s *System) Clone() *System {
	cp := &System{
		impl:         s.impl,
		bases:        make([]base.Object, len(s.bases)),
		procs:        make([]machine.Process, len(s.procs)),
		running:      append([]bool(nil), s.running...),
		nextResp:     append([]int64(nil), s.nextResp...),
		opIdx:        append([]int(nil), s.opIdx...),
		workload:     s.workload, // workloads are immutable
		hist:         s.hist.Clone(),
		stabilizedAt: make(map[string]int, len(s.stabilizedAt)),
		steps:        s.steps,
		stateID:      1,
		nextID:       1,
		actCache:     make([]actCache, len(s.procs)),
		spare:        make([][]machine.Process, len(s.procs)),
		candTagProc:  -1,
		detCheck:     s.detCheck,
	}
	for i, b := range s.bases {
		cp.bases[i] = b.Clone()
	}
	for i, p := range s.procs {
		cp.procs[i] = p.CloneInto(nil)
	}
	if s.baseHist != nil {
		cp.baseHist = s.baseHist.Clone()
	}
	for k, v := range s.stabilizedAt {
		cp.stabilizedAt[k] = v
	}
	return cp
}

// UniformWorkload returns a workload where each of n processes performs the
// same operation reps times.
func UniformWorkload(n, reps int, op spec.Op) [][]spec.Op {
	w := make([][]spec.Op, n)
	for p := range w {
		ops := make([]spec.Op, reps)
		for i := range ops {
			ops[i] = op
		}
		w[p] = ops
	}
	return w
}
