package check

import (
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// TestIncrementalWindowsMatchStandalone pins the reused search against
// leakage from one probe into the next: a clean register history and then a
// corrupted one go through one monitor, and every recorded window MinT must
// equal MinT of that window rebuilt on its own, with a fresh scratch.
func TestIncrementalWindowsMatchStandalone(t *testing.T) {
	m := NewIncremental(spec.NewObject(spec.Register{}), IncrementalConfig{Stride: 32, MaxT: -1})
	var win *history.History
	var obj spec.Object
	// matches checks the window the last Feed or Finish closed, if it closed
	// one; win and obj are the window and object as they were before it.
	matches := func(checks int) {
		t.Helper()
		if m.Checks() == checks {
			return
		}
		want, ok, err := MinT(obj, win, Options{})
		if err != nil || !ok {
			t.Fatalf("standalone MinT: %v, %v", ok, err)
		}
		if got := m.Samples()[len(m.Samples())-1].MinT; got != want {
			t.Fatalf("window %d: monitor MinT %d, standalone %d\n%s", m.Checks(), got, want, win)
		}
	}
	positive := 0
	for _, corrupt := range []float64{0, 0.05} {
		h := gen.Register(rand.New(rand.NewSource(5)), gen.HistoryConfig{Procs: 4, Ops: 400, Corrupt: corrupt, PendingBias: 0.5})
		// Answer what h leaves open, so the next history's processes are free.
		for _, op := range h.Operations() {
			if op.Pending() {
				mustDo(t, h.Respond(op.Proc, 0))
			}
		}
		for i := 0; i < h.Len(); i++ {
			e := h.Event(i)
			win, obj = materialize(t, &m.tb), m.obj
			mustDo(t, win.Append(e))
			checks := m.Checks()
			if v, err := m.Feed(e); err != nil || v != nil {
				t.Fatalf("event %d: violation %v, error %v", i, v, err)
			}
			matches(checks)
			if m.Checks() > checks && m.Samples()[len(m.Samples())-1].MinT > 0 {
				positive++
			}
		}
	}
	win, obj = materialize(t, &m.tb), m.obj
	checks := m.Checks()
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	matches(checks)
	if positive == 0 {
		t.Fatal("no window needed t > 0: the bisection's probes were never exercised")
	}
}

// TestScratchForgetsFailedProbe: a failed probe memoizes (write(1) done,
// state 1); the next window on the same scratch reaches that pair on its way
// to a linearization, and must not take the stale entry for a failure.
func TestScratchForgetsFailedProbe(t *testing.T) {
	var sc scratch
	var tb history.OpTable
	tb.Fill(build(t).call(0, "X", wr(1), 0).call(1, "X", rd, 0).h)
	if ok, err := tLinearizable(regX["X"], &tb, 0, Options{}, &sc); ok || err != nil {
		t.Fatalf("stale read: %v, %v; want not linearizable", ok, err)
	}
	if _, ok := sc.lin.memo[memoKey{mask: 1, state: spec.IntState(1)}]; !ok {
		t.Fatalf("the failed probe did not memoize the pair under test: %v", sc.lin.memo)
	}
	tb.Fill(build(t).call(0, "X", wr(1), 0).call(1, "X", rd, 1).h)
	if ok, err := tLinearizable(regX["X"], &tb, 0, Options{}, &sc); !ok || err != nil {
		t.Fatalf("fresh read after a failed probe: %v, %v; want linearizable", ok, err)
	}
}

// TestScratchDropsOversizedMemo: a probe that leaves more than memoKeep
// entries hands the next probe a new map and leaves its own uncleared; a
// smaller one has its map cleared and reused.
func TestScratchDropsOversizedMemo(t *testing.T) {
	// k concurrent writes, then a read of a value none of them wrote: the
	// failed search memoizes every (set written, last write) pair, k·2^(k-1).
	const k = 10
	b := build(t)
	for p := 0; p < k; p++ {
		b.inv(p, "X", wr(int64(p+1)))
	}
	for p := 0; p < k; p++ {
		b.res(p, 0)
	}
	big := b.call(k, "X", rd, 99).h
	small := build(t).call(0, "X", wr(1), 0).call(1, "X", rd, 0).h

	var sc scratch
	var tb history.OpTable
	probe := func(h *history.History) map[memoKey]struct{} {
		t.Helper()
		tb.Fill(h)
		if ok, err := tLinearizable(regX["X"], &tb, 0, Options{}, &sc); ok || err != nil {
			t.Fatalf("probe: %v, %v; want not linearizable", ok, err)
		}
		return sc.lin.memo
	}
	left := probe(big)
	if len(left) <= memoKeep {
		t.Fatalf("the big probe left %d entries, want more than %d", len(left), memoKeep)
	}
	if next := probe(small); len(left) <= memoKeep || len(next) == 0 || len(next) > memoKeep {
		t.Fatalf("after an oversized memo: old map %d entries (want it dropped, uncleared), new %d", len(left), len(next))
	}
	// A sentinel survives the next probe unless that probe clears this map.
	sentinel := memoKey{mask: 1 << 62}
	left = sc.lin.memo
	left[sentinel] = struct{}{}
	probe(small)
	if _, kept := left[sentinel]; kept || len(left) != len(sc.lin.memo) {
		t.Fatalf("a small memo was not cleared and reused: old map %d entries, new %d", len(left), len(sc.lin.memo))
	}
}
