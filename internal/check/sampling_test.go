package check

import (
	"errors"
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// Under sampling only every Nth window pays the MinT search, the skipped
// windows are counted, and the verdict over the sampled series still
// stabilizes on a clean run.
func TestIncrementalSamplingSkipsWindows(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m := NewIncremental(obj, IncrementalConfig{Stride: 16})
	m.SetSampleEvery(4)
	h := serialCounter(t, 200) // 400 events = 25 full windows
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("clean sampled run flagged: %v", v)
	}
	if m.Sampling().Skipped == 0 {
		t.Fatal("sampling engaged but no window was skipped")
	}
	// Skipped + measured = all closed windows; measured = Checks.
	if m.Sampling().Skipped+m.Checks() != 25 {
		t.Fatalf("skipped %d + checks %d != 25 windows", m.Sampling().Skipped, m.Checks())
	}
	if m.Sampling().MaxEvery != 4 {
		t.Fatalf("MaxSampleEvery = %d, want 4", m.Sampling().MaxEvery)
	}
	if v := m.Verdict(); v.Trend != TrendStabilized {
		t.Fatalf("trend = %s, want stabilized", v.Trend)
	}
}

// The rebase fold still runs on skipped windows: a violation inside an
// unsampled window is invisible, but later sampled windows check against
// the correctly folded state, so a clean tail stays clean.
func TestIncrementalSamplingFoldStaysCorrect(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	for _, every := range []int{1, 2, 3, 5} {
		m := NewIncremental(obj, IncrementalConfig{Stride: 10})
		m.SetSampleEvery(every)
		if v := feedAll(t, m, serialCounter(t, 150)); v != nil {
			t.Fatalf("sampleEvery=%d: clean run flagged: %v", every, v)
		}
	}
}

// Finish always measures the tail window, even when the sampling cadence
// would have skipped it — a run never ends on an unchecked window.
func TestIncrementalSamplingFinishMeasures(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m := NewIncremental(obj, IncrementalConfig{Stride: 16})
	m.SetSampleEvery(100) // would skip essentially everything
	h := serialCounter(t, 40)
	// Tail violation: duplicate response in the final partial window.
	mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 40))
	mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 40))
	if v := feedAll(t, m, h); v == nil {
		t.Fatal("tail violation escaped a sampled run")
	}
}

// A measured window past half the tolerance escalates sampling back to
// exhaustive checking.
func TestIncrementalSamplingEscalation(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m := NewIncremental(obj, IncrementalConfig{Stride: 8, MaxT: 3})
	m.SetSampleEvery(2)
	h := history.New()
	// Every window needs t = 2 (a genuinely stale serial read per round):
	// within tolerance 3, but 2t > MaxT, so the first measured window must
	// flip sampling off.
	k := int64(0)
	for round := 0; round < 8; round++ {
		mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+1))
		mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k))
		mustDo(t, h.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+2))
		mustDo(t, h.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k+3))
		k += 4
	}
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("tolerated staleness flagged: %v", v)
	}
	if m.Sampling().Escalations == 0 {
		t.Fatal("near-violation did not escalate sampling")
	}
	if m.Sampling().Every != 1 {
		t.Fatalf("SampleEvery = %d after escalation, want 1", m.Sampling().Every)
	}
	if m.Sampling().MaxEvery != 2 {
		t.Fatalf("MaxSampleEvery = %d, want 2", m.Sampling().MaxEvery)
	}
}

// The sampling cadence is a countdown from the moment the knob turns, not
// a phase of the global window count: after SetSampleEvery(n), exactly n-1
// windows skip and the nth measures, no matter how many windows had
// already closed. (The old winCount%n bookkeeping measured early or late
// depending on the enable point.)
func TestIncrementalSamplingCountdownPhase(t *testing.T) {
	const stride = 16 // 8 serial ops per window
	cases := []struct {
		before int // windows closed exhaustively before the knob turns
		n      int
		after  int // windows closed with sampling on
	}{
		{before: 0, n: 4, after: 8},
		{before: 1, n: 4, after: 8},
		{before: 3, n: 4, after: 8},
		{before: 4, n: 4, after: 8},
		{before: 5, n: 3, after: 9},
	}
	for _, c := range cases {
		obj := spec.NewObject(spec.FetchInc{})
		m := NewIncremental(obj, IncrementalConfig{Stride: stride})
		h := serialCounter(t, (c.before+c.after)*stride/2)
		cut := c.before * stride
		for i := 0; i < cut; i++ {
			if _, err := m.Feed(h.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.SetSampleEvery(c.n)
		for i := cut; i < h.Len(); i++ {
			if _, err := m.Feed(h.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		measured := c.after / c.n
		if got := m.Checks(); got != c.before+measured {
			t.Errorf("before=%d n=%d: checks = %d, want %d+%d", c.before, c.n, got, c.before, measured)
		}
		if got := m.Sampling().Skipped; got != c.after-measured {
			t.Errorf("before=%d n=%d: skipped = %d, want %d", c.before, c.n, got, c.after-measured)
		}
		// The measured windows sit at before+n, before+2n, ... regardless of
		// phase: the sample stamps pin the positions, not just the counts.
		samples := m.Samples()[c.before:]
		for i, s := range samples {
			want := (c.before + (i+1)*c.n) * stride
			if s.Events != want {
				t.Errorf("before=%d n=%d: sample %d at %d events, want %d", c.before, c.n, i, s.Events, want)
			}
		}
	}
}

// Observe-only monitors (negative MaxT) never escalate:
// positive window MinT is the normal EL signature there.
func TestIncrementalSamplingNoEscalationObserved(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m := NewIncremental(obj, IncrementalConfig{Stride: 8, MaxT: -1})
	m.SetSampleEvery(2)
	h := history.New()
	resp := int64(0)
	for round := 0; round < 6; round++ {
		mustDo(t, h.Invoke(0, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Invoke(1, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Invoke(2, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Invoke(3, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, h.Respond(3, resp+3))
		mustDo(t, h.Respond(2, resp+2))
		mustDo(t, h.Respond(1, resp+1))
		mustDo(t, h.Respond(0, resp))
		resp += 4
	}
	if v := feedAll(t, m, h); v != nil {
		t.Fatalf("observe-only run flagged: %v", v)
	}
	if m.Sampling().Escalations != 0 {
		t.Fatalf("observe-only monitor escalated %d times", m.Sampling().Escalations)
	}
	if m.Sampling().Every != 2 {
		t.Fatalf("observe-only SampleEvery = %d, want 2", m.Sampling().Every)
	}
}

// A window the search budget cannot decide is no sample for an
// observe-only monitor (MaxT < 0): it counts as skipped and the cut folds
// on. A monitor with a tolerance still fails on it.
func TestIncrementalBudgetExhaustedWindow(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	h := history.New()
	for v := int64(1); v <= 4; v++ { // overlapping write/read pairs: 2 windows of 8 events
		mustDo(t, h.Invoke(0, "R", spec.MakeOp1(spec.MethodWrite, v)))
		mustDo(t, h.Invoke(1, "R", spec.MakeOp(spec.MethodRead)))
		mustDo(t, h.Respond(0, 0))
		mustDo(t, h.Respond(1, v))
	}
	for _, maxT := range []int{-1, 0} {
		m := NewIncremental(obj, IncrementalConfig{Stride: 8, MaxT: maxT, Opts: Options{Budget: 1}})
		var err error
		for i := 0; i < h.Len() && err == nil; i++ {
			_, err = m.Feed(h.Event(i))
		}
		if err == nil {
			_, err = m.Finish()
		}
		if maxT >= 0 {
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("MaxT %d: err = %v, want ErrBudget", maxT, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("MaxT %d: %v", maxT, err)
		}
		if s, u := m.Sampling().Skipped, m.Verdict().Undecided; s != 0 || u != 2 || m.Checks() != 0 || len(m.Samples()) != 0 {
			t.Fatalf("MaxT %d: skipped %d, undecided %d, checks %d, samples %v; want 2 undecided, none skipped and no sample",
				maxT, s, u, m.Checks(), m.Samples())
		}
	}
}
