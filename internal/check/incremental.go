package check

import (
	"errors"
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
	// only, no violation stop).
	MaxT int
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
	// Window is the offending window as a standalone history, materialized
	// from the monitor's operation table for the violation. Operations that
	// were already open when the window started appear with their
	// invocations moved to the window start, which only weakens real-time
	// constraints — a violation is never manufactured by the windowing.
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
// single-object history is fed, or advanced over, and checked in windows, so
// a run of millions of operations pays a bounded (per-window) search instead
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

	// tb is the current window's operation table and its only copy: Feed
	// writes its rows, the MinT search and the rebase fold read them. The
	// fold writes the rows open at the cut into spare, and the two swap. sc
	// is the checker's scratch; all three are reused.
	tb, spare history.OpTable
	sc        scratch
	// start is the global event index of the window's first event.
	start int
	// events counts all events fed so far.
	events int

	samples   []Sample
	violation *WindowViolation
	// checks counts windows whose measurement was recorded, undecided the
	// observe-only windows the search budget could not decide.
	checks, undecided int
	// finished is set by Finish, Abort, a violation and a failed Feed:
	// nothing further is checked.
	finished bool

	// Sampling fallback: with sampling.Every > 1 only every Nth closed window
	// pays the MinT search; skipped windows still fold their completed
	// operations into the rebased state (the fold is cheap and required for
	// later windows to check against the right initial state) but record no
	// sample. skipLeft is the countdown to the next measured window: each
	// measured window re-arms it to Every-1, and SetSampleEvery resets it, so
	// re-engaging sampling mid-run always skips exactly n-1 windows before
	// the next measurement regardless of how many windows have closed before
	// (a window-count modulus would make the cadence phase-dependent). Plain
	// ints: they are touched only from the single goroutine driving Feed.
	sampling SamplingStats
	skipLeft int // windows to skip before the next measured one
}

// SamplingStats is a monitor's sampling-fallback accounting.
type SamplingStats struct {
	// Every is the current sampling interval (1 = exhaustive).
	Every int
	// Skipped counts the closed windows the sampling cadence skipped.
	// Windows the search budget leaves undecided are Verdict.Undecided.
	Skipped int
	// Escalations counts the times a near-violation (measured MinT past half
	// the tolerance) forced sampling back to exhaustive.
	Escalations int
	// MaxEvery is the largest interval the run reached (0 when sampling was
	// never engaged).
	MaxEvery int
}

// NewIncremental returns the monitor for a single-object history against
// obj, measuring every window.
func NewIncremental(obj spec.Object, cfg IncrementalConfig) *Incremental {
	return &Incremental{
		cfg:      cfg,
		obj:      obj,
		sampling: SamplingStats{Every: 1},
	}
}

// Events returns the number of events fed so far.
func (m *Incremental) Events() int { return m.events }

// Checks returns the number of windows checked so far.
func (m *Incremental) Checks() int { return m.checks }

// Samples returns the per-window MinT measurements (one per measured window,
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
	m.sampling.Every = n
	// Re-arm the countdown from scratch: n-1 skips before the next measured
	// window, or none when returning to exhaustive checking. Without this a
	// stale countdown from an earlier sampling phase would bleed into the
	// new cadence.
	m.skipLeft = n - 1
	m.sampling.MaxEvery = max(m.sampling.MaxEvery, n)
}

// Sampling returns the sampling-fallback accounting.
func (m *Incremental) Sampling() SamplingStats { return m.sampling }

// Verdict classifies the trend of the per-window MinT series.
func (m *Incremental) Verdict() Verdict {
	v := Verdict{Samples: m.samples, Undecided: m.undecided}
	if len(m.samples) > 0 {
		v.FinalMinT = m.samples[len(m.samples)-1].MinT
	}
	v.Trend, v.Slope = classify(m.samples)
	return v
}

// Feed appends one event. When the event closes a window the window is
// checked; a tolerance breach returns the violation (also retained for
// Violation) and freezes the monitor — further Feeds return the same
// violation without checking. Feed after Finish or Abort is an error, and so
// is every Feed after one that failed.
func (m *Incremental) Feed(e history.Event) (*WindowViolation, error) {
	if m.finished {
		if m.violation != nil {
			return m.violation, nil
		}
		return nil, fmt.Errorf("check: monitor feed after finish")
	}
	var err error
	switch e.Kind {
	case history.KindInvoke:
		err = m.tb.Invoke(e.Proc, e.Obj, e.Op)
	case history.KindRespond:
		err = m.tb.Respond(e.Proc, e.Obj, e.Resp)
	default:
		err = fmt.Errorf("invalid event kind %d", int(e.Kind))
	}
	if err != nil {
		m.finished = true
		return nil, fmt.Errorf("check: monitor feed: %w", err)
	}
	m.events++
	return m.step(false)
}

// Advance feeds h's events [Events(), end) as Feed would one by one (the
// same windows, samples and violation), reading h's records: no event is
// built and nothing is proved again. h's first Events() events must be the
// ones already seen. Frozen by a violation it returns that violation; after
// Finish, and for an end outside [Events(), h.Len()], it is an error.
func (m *Incremental) Advance(h *history.History, end int) (*WindowViolation, error) {
	if m.finished || end < m.events || end > h.Len() {
		if m.violation != nil {
			return m.violation, nil
		}
		return nil, fmt.Errorf("check: monitor advance to event %d: finished, or outside [%d,%d]", end, m.events, h.Len())
	}
	for m.events < end {
		// At least one: a cut that carried stride open rows closes next.
		n := min(end-m.events, max(1, m.cfg.stride()-m.tb.Events))
		m.tb.Extend(h, m.events, m.events+n)
		m.events += n
		if v, err := m.step(false); v != nil || err != nil {
			return v, err
		}
	}
	return nil, nil
}

// Finish checks the final partial window (if it has any events). Call it
// after the last Feed or Advance; the returned violation, if any, covers the
// tail. A second Finish returns the same violation.
func (m *Incremental) Finish() (*WindowViolation, error) {
	if m.finished {
		return m.violation, nil
	}
	v, err := m.step(true)
	m.finished = true
	return v, err
}

// Abort stops the monitor without measuring the tail window. Idempotent; a
// no-op after Finish.
func (m *Incremental) Abort() { m.finished = true }

// step closes the current window if it is due: a full stride, or at the end
// whatever Finish found in it. An error freezes the monitor.
func (m *Incremental) step(end bool) (v *WindowViolation, err error) {
	if n := m.tb.Events; n >= m.cfg.stride() || end && n > 0 {
		v, err = m.closeWindow(end)
	}
	if err != nil {
		m.finished = true
	}
	return v, err
}

// closeWindow decides whether the closed window is measured, measures it
// and advances the cut. Under sampling, unsampled windows skip the MinT
// search but still advance the cut; force (Finish's tail window) always
// measures, so a run never ends on an unchecked window.
func (m *Incremental) closeWindow(force bool) (*WindowViolation, error) {
	if !force && m.skipLeft > 0 {
		m.skipLeft--
		m.sampling.Skipped++
		return nil, m.advanceCut()
	}
	m.skipLeft = m.sampling.Every - 1
	t, ok, err := windowMinT(m.obj, &m.tb, m.cfg.Opts, &m.sc)
	if errors.Is(err, ErrBudget) && m.cfg.MaxT < 0 {
		// Observe-only: a window the budget cannot decide is no sample.
		m.undecided++
		return nil, m.advanceCut()
	}
	if err != nil {
		return nil, fmt.Errorf("check: monitor window [%d,%d): %w", m.start, m.events, err)
	}
	if v, err := m.record(t, ok); v != nil || err != nil {
		return v, err
	}
	return nil, m.advanceCut()
}

// advanceCut folds the completed operations of the current window into the
// rebased initial state and makes the next window current, primed with the
// rows of the still-open operations. The fold runs in response-event order:
// in the live runtime response events are placed at their commit tickets,
// so this is the commit order.
func (m *Incremental) advanceCut() error {
	state := m.obj.Init
	for _, j := range m.tb.ByRes {
		op := &m.tb.Ops[j]
		to, applied := stepRebase(m.obj.Type, state, op.Op, op.Resp)
		if !applied {
			return fmt.Errorf("check: incremental rebase: %s inapplicable in state %v", op.Op, state)
		}
		state = to
	}
	m.spare.Reset()
	for i := range m.tb.Ops {
		if op := &m.tb.Ops[i]; op.Pending() {
			_ = m.spare.Invoke(op.Proc, op.Obj, op.Op) // one open row a process: never refused
		}
	}
	m.obj = spec.Object{Type: m.obj.Type, Init: state}
	m.start = m.events
	m.tb, m.spare = m.spare, m.tb
	return nil
}

// record books the measured current window [start, events): count the
// check, append the sample, raise the violation or note a near-violation
// escalation. A violation keeps the window's object and the history
// materialized from its table, and freezes the monitor.
func (m *Incremental) record(t int, ok bool) (*WindowViolation, error) {
	m.checks++
	if !ok {
		t = -1
	}
	m.samples = append(m.samples, Sample{Events: m.events, MinT: t})
	if m.cfg.MaxT >= 0 && (t < 0 || t > m.cfg.MaxT) {
		win, err := m.tb.History()
		if err != nil {
			return nil, fmt.Errorf("check: monitor window [%d,%d): %w", m.start, m.events, err)
		}
		m.violation = &WindowViolation{Start: m.start, End: m.events, Window: win, Object: m.obj, MinT: t, MaxT: m.cfg.MaxT}
		m.finished = true
		return m.violation, nil
	}
	// Near-violation escalation: a measured MinT past half the tolerance
	// ends sampling — the trend is drifting toward the threshold, so every
	// window matters again. Observe-only runs (negative MaxT) never
	// escalate: positive t is the normal EL signature there, not an
	// approaching failure.
	if m.sampling.Every > 1 && m.cfg.MaxT > 0 && 2*t > m.cfg.MaxT {
		m.sampling.Every = 1
		m.skipLeft = 0
		m.sampling.Escalations++
	}
	return nil, nil
}

// windowMinT is MinT of the window tb describes: the check of one closed
// window.
func windowMinT(obj spec.Object, tb *history.OpTable, opts Options, sc *scratch) (int, bool, error) {
	if err := tableOneObject(tb); err != nil {
		return 0, false, err
	}
	return minT(obj, tb, opts, sc)
}

// stepRebase advances state by op. Of several outcomes the one matching the
// recorded response is selected (the branch the implementation claims to
// have taken), falling back to the first when none matches; a deterministic
// type has only the first.
func stepRebase(typ spec.Type, state spec.State, op spec.Op, resp int64) (spec.State, bool) {
	first, n := typ.Step(state, op, 0)
	if n == 0 {
		return state, false
	}
	for k := 1; k < n && first.Resp != resp; k++ {
		if out, _ := typ.Step(state, op, k); out.Resp == resp {
			return out.Next, true
		}
	}
	return first.Next, true
}
