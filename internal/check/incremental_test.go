package check

import (
	"fmt"
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

func feedAll(t *testing.T, m *Incremental, h *history.History) *WindowViolation {
	t.Helper()
	for i := 0; i < h.Len(); i++ {
		v, err := m.Feed(h.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			return v
		}
	}
	v, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// serialCounter builds k sequential fetchinc ops with correct responses.
func serialCounter(t *testing.T, k int) *history.History {
	t.Helper()
	h := history.New()
	for i := 0; i < k; i++ {
		if err := h.Call(i%3, "C", spec.MakeOp(spec.MethodFetchInc), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestIncrementalCleanRun(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m := NewIncremental(obj, IncrementalConfig{Stride: 16})
	h := serialCounter(t, 100)
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("clean history flagged: %v", v)
	}
	if m.Events() != 200 {
		t.Fatalf("events = %d, want 200", m.Events())
	}
	if m.Checks() < 10 {
		t.Fatalf("checks = %d, want >= 10", m.Checks())
	}
	for _, s := range m.Samples() {
		if s.MinT != 0 {
			t.Fatalf("clean window MinT = %d at %d events", s.MinT, s.Events)
		}
	}
	if v := m.Verdict(); v.Trend != TrendStabilized {
		t.Fatalf("trend = %s, want stabilized", v.Trend)
	}
}

// TestIncrementalRebaseMatchesFull checks that the windowed cut does not
// change verdicts: a history that is linearizable as a whole stays clean
// under every stride, including strides that cut mid-operation.
func TestIncrementalRebaseMatchesFull(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	// Concurrent pattern: two overlapping ops per round, correct responses.
	h := history.New()
	resp := int64(0)
	for round := 0; round < 30; round++ {
		mustDo(t, h.Invoke(0, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Invoke(1, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Respond(1, resp))
		mustDo(t, h.Respond(0, resp+1))
		resp += 2
	}
	for _, stride := range []int{5, 7, 16, 64, 1000} {
		m := NewIncremental(obj, IncrementalConfig{Stride: stride})
		if v := feedAll(t, m, h); v != nil {
			t.Fatalf("stride %d: clean concurrent history flagged: %v", stride, v)
		}
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalCatchesDuplicate(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	h := serialCounter(t, 40)
	// A lost update far into the run: two ops answer 40.
	mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 40))
	mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 40))
	m := NewIncremental(obj, IncrementalConfig{Stride: 16})
	v := feedAll(t, m, h)
	if v == nil {
		t.Fatal("duplicate response not caught")
	}
	if v.MinT <= 0 {
		t.Fatalf("violation MinT = %d, want > 0", v.MinT)
	}
	if v.Window.Len() == 0 || v.End <= v.Start {
		t.Fatalf("bad violation window: %+v", v)
	}
	// The standalone window must itself fail a 0-linearizability check.
	lin, err := TLinearizable(v.Object, v.Window, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin {
		t.Fatal("violation window is 0-linearizable standalone")
	}
	// The monitor freezes after a violation.
	again, err := m.Feed(history.Event{Kind: history.KindInvoke, Proc: 5, Obj: "C", Op: spec.MakeOp(spec.MethodFetchInc)})
	if err != nil || again != v {
		t.Fatalf("frozen monitor: v=%v err=%v", again, err)
	}
}

// TestIncrementalStaleRegime: an eventually-linearizable-style run whose
// early windows answer stale but later windows are exact. With tolerance
// the monitor passes and the trend stabilizes.
func TestIncrementalToleranceAndTrend(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	h := history.New()
	// Early regime: pairs of concurrent ops both answered with the lower
	// value's op reordered — sequentially legal per window only with t > 0.
	// Build: inv a, inv b, res a=k+1, res b=k (swapped completion order).
	// Per round (one window at stride 8), four serial ops with the first two
	// responses swapped: the second op is a genuinely stale read (it follows
	// the first in real time yet answers a lower value), so the window needs
	// t = 2 — non-zero but within tolerance.
	k := int64(0)
	for round := 0; round < 8; round++ {
		mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+1))
		mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k))
		mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+2))
		mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k+3))
		k += 4
	}
	// Late regime: serial and exact.
	for i := 0; i < 60; i++ {
		mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k))
		k++
	}
	m := NewIncremental(obj, IncrementalConfig{Stride: 8, MaxT: 4})
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("tolerated run flagged: %v", v)
	}
	samples := m.Samples()
	if samples[0].MinT == 0 {
		t.Fatalf("early window unexpectedly exact: %+v", samples[0])
	}
	last := samples[len(samples)-1]
	if last.MinT != 0 {
		t.Fatalf("late window MinT = %d, want 0", last.MinT)
	}
	if v := m.Verdict(); v.Trend != TrendStabilized {
		t.Fatalf("trend = %s, want stabilized (samples %+v)", v.Trend, samples)
	}
}

func TestIncrementalNegativeMaxTObserves(t *testing.T) {
	// MaxT < 0 means trend watching only: no window, however bad, stops the
	// monitor.
	obj := spec.NewObject(spec.FetchInc{})
	h := serialCounter(t, 10)
	mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 10))
	mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 10))
	m := NewIncremental(obj, IncrementalConfig{Stride: 8, MaxT: -1})
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("negative-MaxT monitor flagged: %v", v)
	}
	bad := false
	for _, s := range m.Samples() {
		if s.MinT > 0 {
			bad = true
		}
	}
	if !bad {
		t.Fatalf("bad window invisible in samples: %+v", m.Samples())
	}
}

// ----------------------------------------------------------------------------
// Trend classification edge cases (classify is also the TrackMinT backend).

func TestClassifyEdgeCases(t *testing.T) {
	mk := func(minTs ...int) []Sample {
		s := make([]Sample, len(minTs))
		for i, v := range minTs {
			s[i] = Sample{Events: (i + 1) * 10, MinT: v}
		}
		return s
	}
	cases := []struct {
		name    string
		samples []Sample
		want    Trend
	}{
		{"empty", nil, TrendInconclusive},
		{"single", mk(0), TrendInconclusive},
		{"two", mk(0, 5), TrendInconclusive},
		{"three", mk(1, 1, 1), TrendInconclusive},
		{"plateau", mk(3, 3, 3, 3, 3, 3), TrendStabilized},
		{"growth-then-plateau", mk(1, 4, 9, 9, 9, 9, 9, 9), TrendStabilized},
		{"plateau-then-spike", mk(0, 0, 0, 0, 0, 50), TrendDiverging},
		{"steady-growth", mk(5, 10, 15, 20, 25, 30), TrendDiverging},
		{"spike-then-recover", mk(0, 0, 0, 50, 0, 0), TrendInconclusive},
	}
	for _, tc := range cases {
		got, _ := classify(tc.samples)
		if got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Slope sanity: a pure plateau has zero slope, steady growth a positive
	// one.
	if _, slope := classify(mk(3, 3, 3, 3, 3, 3)); slope != 0 {
		t.Errorf("plateau slope = %v, want 0", slope)
	}
	if _, slope := classify(mk(5, 10, 15, 20, 25, 30)); slope <= 0 {
		t.Errorf("growth slope = %v, want > 0", slope)
	}
}

// TestIncrementalCrashCutGap is the crash-recovery rebasing case: a run
// crashes at commit K with one operation still in flight (its invocation
// never gets a response — the proc died with it), and the continuation
// resumes the commit order with fresh proc ids. Windows straddling the cut
// must rebase cleanly — the permanently-pending invocation is carried
// forward, completed pre-crash ops fold into the initial state, and no
// false violation is reported at any stride.
func TestIncrementalCrashCutGap(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	h := history.New()
	resp := int64(0)
	// Pre-crash: procs 0 and 1 complete 40 ops between them...
	for i := 0; i < 40; i++ {
		mustDo(t, h.Call(i%2, "C", spec.MakeOp(spec.MethodFetchInc), resp))
		resp++
	}
	// ...then proc 1 invokes and the process dies: the op stays pending for
	// the rest of the history (its ticket was lost with the crash).
	mustDo(t, h.Invoke(1, "C", spec.MakeOp(spec.MethodFetchInc)))
	// Post-crash continuation: fresh procs 2 and 3 resume the commit order
	// exactly where the log ended (the lost in-flight op never committed).
	for i := 0; i < 40; i++ {
		mustDo(t, h.Call(2+i%2, "C", spec.MakeOp(spec.MethodFetchInc), resp))
		resp++
	}
	// Strides chosen to place window cuts before, at, and after the crash
	// gap (the pending invocation is event 80).
	for _, stride := range []int{7, 16, 80, 81, 1000} {
		m := NewIncremental(obj, IncrementalConfig{Stride: stride})
		if v := feedAll(t, m, h); v != nil {
			t.Fatalf("stride %d: crash-cut history flagged: %v", stride, v)
		}
		for _, s := range m.Samples() {
			if s.MinT != 0 {
				t.Fatalf("stride %d: window MinT = %d at %d events (false degradation across the cut)",
					stride, s.MinT, s.Events)
			}
		}
	}
	// Fine stride gives enough windows for a trend verdict across the cut.
	m := NewIncremental(obj, IncrementalConfig{Stride: 16})
	if v := feedAll(t, m, h); v != nil {
		t.Fatal(v)
	}
	if v := m.Verdict(); v.Trend != TrendStabilized {
		t.Fatalf("trend across crash cut = %s, want stabilized", v.Trend)
	}
}

// TestIncrementalPendingAtWindowCut is the pending-operations table for the
// window cut. An operation open at a cut is carried into the next window as
// an invocation at its start and folded into the rebased state only by the
// window its response lands in — exactly once, whether that window's MinT
// search runs or is skipped under sampling — and one still open at Finish is
// measured as pending and never folded. Each row is a linearizable counter
// run with stride 4 in which proc 1's operation X stays open across cuts;
// the rebased counter after Finish must equal the number of completed
// operations, and no window may raise anything.
func TestIncrementalPendingAtWindowCut(t *testing.T) {
	inc := spec.MakeOp(spec.MethodFetchInc)
	type step struct {
		proc int
		resp int64 // -1: invocation
	}
	const inv = -1
	rows := []struct {
		name      string
		steps     []step
		completed int64
		windows   int // windows closed, the tail Finish measures included
		skipped   int // of those, skipped once sample:2 is engaged after the first
	}{
		{"responds in the next window", []step{
			{0, inv}, {0, 0}, {1, inv}, {0, inv}, // cut: X and one more open
			{0, 1}, {1, 2}, // cut: X responded
			{0, inv}, {0, 3}, {1, inv}, {1, 4},
		}, 5, 3, 1},
		{"pending across two cuts", []step{
			{1, inv}, {0, inv}, {0, 0}, {0, inv}, // cut: X open
			{0, 1}, {0, inv}, // cut: X still open
			{0, 2}, {1, 3}, // cut: X responded
			{0, inv}, {0, 4}, {1, inv}, {1, 5},
		}, 6, 4, 2},
		{"still pending at Finish", []step{
			{1, inv}, {0, inv}, {0, 0}, {0, inv}, // cut: X open
			{0, 1}, {0, inv}, // cut: X still open
			{0, 2}, // tail: X never responds
		}, 3, 3, 1}, // the tail is measured whatever the countdown says
	}
	for _, row := range rows {
		h := history.New()
		for _, s := range row.steps {
			if s.resp == inv {
				mustDo(t, h.Invoke(s.proc, "C", inc))
			} else {
				mustDo(t, h.Respond(s.proc, s.resp))
			}
		}
		for _, skipMiddle := range []bool{false, true} {
			label := fmt.Sprintf("%s/skip-middle=%v", row.name, skipMiddle)
			m := NewIncremental(spec.NewObject(spec.FetchInc{}), IncrementalConfig{Stride: 4})
			for i := 0; i < h.Len(); i++ {
				if i == 4 && skipMiddle {
					m.SetSampleEvery(2) // first window measured, second skipped
				}
				if v, err := m.Feed(h.Event(i)); v != nil || err != nil {
					t.Fatalf("%s: event %d: violation %v, error %v", label, i, v, err)
				}
			}
			if v, err := m.Finish(); v != nil || err != nil {
				t.Fatalf("%s: Finish: violation %v, error %v", label, v, err)
			}
			if got := m.obj.Init; got != row.completed {
				t.Errorf("%s: rebased counter %v, want %d (each completed operation folded once)", label, got, row.completed)
			}
			skipped := 0
			if skipMiddle {
				skipped = row.skipped
			}
			if m.Checks()+m.Sampling().Skipped != row.windows || m.Sampling().Skipped != skipped {
				t.Errorf("%s: %d checked + %d skipped, want %d windows with %d skipped",
					label, m.Checks(), m.Sampling().Skipped, row.windows, skipped)
			}
			for _, s := range m.Samples() {
				if s.MinT != 0 {
					t.Errorf("%s: window closing at event %d has MinT %d", label, s.Events, s.MinT)
				}
			}
		}
	}
}
