package check

import (
	"fmt"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// IncrementalConfig tunes the windowed online monitor.
type IncrementalConfig struct {
	// Stride is the number of events between checks; each check closes one
	// window (default 256). Smaller strides catch violations sooner and keep
	// the per-check search small; the generic engine caps a window at
	// MaxOpsPerObject operations, so non-fetchinc/consensus types need
	// Stride well below 2*MaxOpsPerObject.
	Stride int
	// MaxT is the violation threshold: a window whose MinT exceeds it stops
	// the monitor with a WindowViolation. 0 (the default) demands every
	// window be linearizable on its own — the right setting for objects
	// claiming linearizability. Eventually linearizable objects are run
	// with a positive tolerance, or with a negative MaxT (trend watching
	// only, no violation stop — same as NoViolation).
	MaxT int
	// NoViolation disables the MaxT cut-off entirely (equivalent to a
	// negative MaxT but keeps the zero value of MaxT meaning "strict").
	NoViolation bool
	// Opts configures the underlying MinT searches.
	Opts Options
}

func (c IncrementalConfig) stride() int {
	if c.Stride <= 0 {
		return 256
	}
	return c.Stride
}

// WindowViolation is an online monitor stop: a window whose MinT exceeded
// the configured tolerance. The window is standalone — its object carries
// the rebased initial state, so it can be re-checked, shrunk and replayed
// without the rest of the run.
type WindowViolation struct {
	// Start and End are the global event indexes the window covers
	// ([Start, End) in the full merged history).
	Start, End int
	// Window is the offending window as a standalone history (cloned; safe
	// to keep). Operations that were already open when the window started
	// appear with their invocations moved to the window start, which only
	// weakens real-time constraints — a violation is never manufactured by
	// the windowing.
	Window *history.History
	// Object is the specification the window was checked against, with the
	// initial state rebased past the committed prefix.
	Object spec.Object
	// MinT is the window's measured MinT, or -1 if the window is not
	// t-linearizable for any t (partial types only).
	MinT int
	// MaxT echoes the tolerance the window exceeded.
	MaxT int
}

// String implements fmt.Stringer.
func (v *WindowViolation) String() string {
	return fmt.Sprintf("window [%d,%d): MinT %d exceeds tolerance %d", v.Start, v.End, v.MinT, v.MaxT)
}

// Incremental is the online t-linearizability monitor: a growing
// single-object history is fed event by event and checked in windows, so a
// run of millions of operations pays a bounded (per-window) search instead
// of one post-hoc check over the whole history — post-hoc linearizability
// checking is NP-hard in the history length, windowed monitoring is the
// standard way long-lived objects stay checkable online.
//
// Every Stride events the monitor computes the MinT of the current window
// as a standalone history and then advances the window: operations
// completed inside the window are folded into the object's initial state
// (applied in commit order — exact for order-insensitive types like
// fetch&increment, where any serialization of n increments yields the same
// state; for other types the fold trusts the recorded commit order, which
// is precisely the serialization claim under test). Operations still open
// at the cut stay in the next window with their invocations moved to the
// window start — a sound weakening (it only removes real-time edges), so
// the monitor never reports a violation a full post-hoc check would not.
// The converse does not hold: a violation whose conflicting operations
// never share a window is missed, the usual windowed-monitoring trade-off.
//
// The per-window MinT values form a Sample series (one sample per window,
// at the global event count where the window closed): Verdict classifies
// their trend, which is the live analog of TrackMinT — stabilized windows
// are the Definition 4 signature, persistently growing window MinT the
// Corollary 19 one.
type Incremental struct {
	cfg IncrementalConfig

	// obj is the specification with Init rebased past the committed prefix.
	obj spec.Object
	det spec.DetStepper // non-nil fast path for the rebase fold

	// win is the current window as a standalone history; tb is its operation
	// table, filled once when the window closes and shared by the MinT search
	// and the rebase fold; sc is the checker's scratch. All three are reused
	// from window to window.
	win *history.History
	tb  history.OpTable
	sc  scratch
	// start is the global event index of the window's first event.
	start int
	// events counts all events fed so far.
	events int

	samples   []Sample
	violation *WindowViolation
	// checks counts windows closed (violating or not).
	checks int

	// Sampling fallback: with sampleEvery > 1 only every Nth closed window
	// pays the MinT search; skipped windows still fold their completed
	// operations into the rebased state (the fold is cheap and required for
	// later windows to check against the right initial state) but record no
	// sample. skipLeft is the countdown to the next measured window: each
	// measured window re-arms it to sampleEvery-1, and SetSampleEvery resets
	// it, so re-engaging sampling mid-run always skips exactly n-1 windows
	// before the next measurement regardless of how many windows have closed
	// before (a winCount modulus would make the cadence phase-dependent).
	// All plain ints: they are touched only from the single goroutine
	// driving Feed.
	sampleEvery    int // 0 or 1 = exhaustive
	skipLeft       int // windows to skip before the next measured one
	winCount       int // windows closed, measured or skipped
	skipped        int // windows whose MinT search was skipped
	escalations    int // times a near-violation forced sampling back to 1
	maxSampleEvery int // high-water mark of sampleEvery over the run
}

// NewIncremental returns the sequential monitor for a single-object history
// against obj.
//
// Deprecated: construct monitors through NewMonitor with a MonitorSpec —
// it covers this monitor (kinds MonitorFull and MonitorSample) alongside
// the sharded and record-only implementations behind the Monitor interface.
// NewIncremental stays for callers that need the concrete type.
func NewIncremental(obj spec.Object, cfg IncrementalConfig) *Incremental {
	m := &Incremental{
		cfg: cfg,
		obj: obj,
		win: history.New(),
	}
	m.det, _ = obj.Type.(spec.DetStepper)
	return m
}

// Events returns the number of events fed so far.
func (m *Incremental) Events() int { return m.events }

// Checks returns the number of windows checked so far.
func (m *Incremental) Checks() int { return m.checks }

// Samples returns the per-window MinT measurements (one per closed window,
// keyed by the global event count at the close). The slice is live; callers
// must not mutate it.
func (m *Incremental) Samples() []Sample { return m.samples }

// Violation returns the recorded violation, if any.
func (m *Incremental) Violation() *WindowViolation { return m.violation }

// SetSampleEvery switches the monitor to every-Nth-window sampling (n <= 1
// restores exhaustive checking). The graceful-degradation knob: under
// overload a server trades per-window MinT coverage for line rate, and the
// monitor escalates itself back to exhaustive on a near-violation. Safe to
// call between Feeds only (same goroutine discipline as Feed).
func (m *Incremental) SetSampleEvery(n int) {
	if n < 1 {
		n = 1
	}
	m.sampleEvery = n
	// Re-arm the countdown from scratch: n-1 skips before the next measured
	// window, or none when returning to exhaustive checking. Without this a
	// stale countdown from an earlier sampling phase would bleed into the
	// new cadence.
	m.skipLeft = n - 1
	if n > m.maxSampleEvery {
		m.maxSampleEvery = n
	}
}

// SampleEvery returns the current sampling interval (1 = exhaustive).
func (m *Incremental) SampleEvery() int {
	if m.sampleEvery < 1 {
		return 1
	}
	return m.sampleEvery
}

// SkippedWindows returns how many closed windows skipped their MinT search
// under sampling.
func (m *Incremental) SkippedWindows() int { return m.skipped }

// Escalations returns how many times a near-violation (measured MinT past
// half the tolerance) forced sampling back to exhaustive.
func (m *Incremental) Escalations() int { return m.escalations }

// MaxSampleEvery returns the largest sampling interval the run reached
// (0 when sampling was never engaged).
func (m *Incremental) MaxSampleEvery() int { return m.maxSampleEvery }

// Verdict classifies the trend of the per-window MinT series.
func (m *Incremental) Verdict() Verdict {
	v := Verdict{Samples: m.samples}
	if len(m.samples) > 0 {
		v.FinalMinT = m.samples[len(m.samples)-1].MinT
	}
	v.Trend, v.Slope = Classify(m.samples)
	return v
}

// Feed appends one event. When the event closes a window the window is
// checked; a tolerance breach returns the violation (also retained for
// Violation) and freezes the monitor — further Feeds return the same
// violation without checking.
func (m *Incremental) Feed(e history.Event) (*WindowViolation, error) {
	if m.violation != nil {
		return m.violation, nil
	}
	if err := m.win.Append(e); err != nil {
		return nil, fmt.Errorf("check: incremental feed: %w", err)
	}
	m.events++
	if m.win.Len() < m.cfg.stride() {
		return nil, nil
	}
	return m.closeWindow(false)
}

// Finish checks the final partial window (if it has any events). Call it
// after the last Feed; the returned violation, if any, covers the tail.
func (m *Incremental) Finish() (*WindowViolation, error) {
	if m.violation != nil || m.win.Len() == 0 {
		return m.violation, nil
	}
	return m.closeWindow(true)
}

// Abort implements Monitor. The sequential monitor holds no resources, so
// aborting just drops the unmeasured tail window.
func (m *Incremental) Abort() {}

// closeWindow measures the current window, records the sample, raises a
// violation if tolerated MinT is exceeded, and otherwise advances the cut.
// Under sampling, unsampled windows skip the MinT search but still advance
// the cut; force (Finish's tail window) always measures, so a run never
// ends on an unchecked window.
func (m *Incremental) closeWindow(force bool) (*WindowViolation, error) {
	m.winCount++
	m.tb.Fill(m.win)
	if !force && m.skipLeft > 0 {
		m.skipLeft--
		m.skipped++
		return nil, m.advanceCut()
	}
	t, ok, err := windowMinT(m.obj, m.win, &m.tb, m.cfg.Opts, &m.sc)
	if err != nil {
		return nil, fmt.Errorf("check: incremental window [%d,%d): %w", m.start, m.events, err)
	}
	m.checks++
	if !ok {
		t = -1
	}
	m.samples = append(m.samples, Sample{Events: m.events, MinT: t})
	if !m.cfg.NoViolation && m.cfg.MaxT >= 0 && (t < 0 || t > m.cfg.MaxT) {
		m.violation = &WindowViolation{
			Start:  m.start,
			End:    m.events,
			Window: m.win.Clone(),
			Object: m.obj,
			MinT:   t,
			MaxT:   m.cfg.MaxT,
		}
		return m.violation, nil
	}
	// Near-violation escalation: a measured MinT past half the tolerance
	// ends sampling — the trend is drifting toward the threshold, so every
	// window matters again. Observe-only runs (NoViolation or negative
	// MaxT) never escalate: positive t is the normal EL signature there,
	// not an approaching failure.
	if m.sampleEvery > 1 && !m.cfg.NoViolation && m.cfg.MaxT > 0 && 2*t > m.cfg.MaxT {
		m.sampleEvery = 1
		m.skipLeft = 0
		m.escalations++
	} else if m.sampleEvery > 1 {
		m.skipLeft = m.sampleEvery - 1
	}
	return nil, m.advanceCut()
}

// advanceCut folds the window's completed operations into the rebased
// initial state (in commit order) and restarts the window with the
// still-open operations' invocations.
func (m *Incremental) advanceCut() error {
	m.win.Reset()
	obj, err := rebaseFold(m.obj, m.det, &m.tb, m.win)
	if err != nil {
		return err
	}
	m.obj = obj
	m.start = m.events
	return nil
}

// windowMinT is MinT of win given its operation table tb: the check of one
// closed window, as both window monitors run it.
func windowMinT(obj spec.Object, win *history.History, tb *history.OpTable, opts Options, sc *scratch) (int, bool, error) {
	if err := oneObject(win); err != nil {
		return 0, false, err
	}
	return minT(obj, tb, opts, sc)
}

// rebaseFold is the shared window handoff: it folds the completed
// operations of the window tb was filled from into obj's initial state and
// primes next, which must be empty, with the still-open operations'
// invocations. The fold runs in response-event order: in the live runtime
// response events are placed at their commit tickets, so this is the commit
// order. The sequential monitor passes its own window, reset; the
// window-sharded monitor a new one, because the closed window goes to a
// worker while recording continues against the rebased state.
func rebaseFold(obj spec.Object, det spec.DetStepper, tb *history.OpTable, next *history.History) (spec.Object, error) {
	state := obj.Init
	for _, j := range tb.ByRes {
		op := &tb.Ops[j]
		to, applied := stepRebase(obj, det, state, op.Op, op.Resp)
		if !applied {
			return obj, fmt.Errorf("check: incremental rebase: %s inapplicable in state %v", op.Op, state)
		}
		state = to
	}
	for i := range tb.Ops {
		if op := &tb.Ops[i]; op.Pending() {
			if err := next.Invoke(op.Proc, op.Obj, op.Op); err != nil {
				return obj, fmt.Errorf("check: incremental rebase: %w", err)
			}
		}
	}
	return spec.Object{Type: obj.Type, Init: state}, nil
}

// stepRebase advances state by op. Deterministic types ignore resp; for a
// nondeterministic type the outcome matching the recorded response is
// selected (the branch the implementation claims to have taken), falling
// back to the first applicable outcome when none matches.
func stepRebase(obj spec.Object, det spec.DetStepper, state spec.State, op spec.Op, resp int64) (spec.State, bool) {
	if det != nil {
		out, ok := det.StepDet(state, op)
		return out.Next, ok
	}
	outs := obj.Type.Step(state, op)
	if len(outs) == 0 {
		return state, false
	}
	for _, out := range outs {
		if out.Resp == resp {
			return out.Next, true
		}
	}
	return outs[0].Next, true
}
