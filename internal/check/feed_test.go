package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// materialize is the window tb describes, as a standalone history.
func materialize(t *testing.T, tb *history.OpTable) *history.History {
	t.Helper()
	h, err := tb.History()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// nextWindow is the reference for a window cut: a new history that
// re-invokes, in invocation order, the operations win leaves open.
func nextWindow(t *testing.T, win *history.History) *history.History {
	t.Helper()
	next := history.New()
	for _, op := range win.Operations() {
		if op.Pending() {
			mustDo(t, next.Invoke(op.Proc, op.Obj, op.Op))
		}
	}
	return next
}

// feedLikeHistory feeds events to a monitor with the given stride and,
// beside it, to a reference window built from History: each event is
// appended to it, and a close replaces it by nextWindow. It fails t unless
// Feed refuses exactly the event History.Append refuses, with the same
// words under the "check: monitor feed: " prefix, and refuses every Feed
// after that, and unless a window on two objects fails at its close with
// oneObject's words. It returns the index of the refused event, or -1, and
// the error the monitor stopped on; a window check or rebase fold that
// fails on its own (a foreign method, say) stops the comparison there.
func feedLikeHistory(t *testing.T, obj spec.Object, stride int, events []history.Event) (int, error) {
	t.Helper()
	m := NewIncremental(obj, IncrementalConfig{Stride: stride, MaxT: -1})
	win := history.New()
	stopped := func(at int, err error) {
		t.Helper()
		late := append(slices.Clone(events[at+1:]),
			history.Event{Kind: history.KindInvoke, Proc: 9, Obj: "X", Op: spec.MakeOp(spec.MethodFetchInc)})
		for _, e := range late {
			if _, err := m.Feed(e); err == nil {
				t.Fatalf("Feed of %v succeeded after the monitor failed at event %d", e, at)
			}
		}
	}
	for i, e := range events {
		start := m.start
		want := win.Append(e)
		_, err := m.Feed(e)
		if want != nil {
			if err == nil || err.Error() != "check: monitor feed: "+want.Error() {
				t.Fatalf("event %d (%v): Feed error %v, History.Append error %v", i, e, err, want)
			}
			stopped(i, err)
			return i, err
		}
		if win.Len() < stride {
			if err != nil {
				t.Fatalf("event %d (%v): Feed refused an event History.Append takes: %v", i, e, err)
			}
			continue
		}
		if !win.SingleObject() {
			text := fmt.Sprintf("check: monitor window [%d,%d): %v", start, i+1, oneObject(win))
			if err == nil || err.Error() != text {
				t.Fatalf("event %d closes a window on two objects: Feed error %v, want %s", i, err, text)
			}
			stopped(i, err)
			return -1, err
		}
		if err != nil {
			if strings.HasPrefix(err.Error(), "check: monitor feed: ") {
				t.Fatalf("event %d (%v): Feed refused an event History.Append takes: %v", i, e, err)
			}
			return -1, err
		}
		win = nextWindow(t, win)
	}
	return -1, nil
}

// TestMonitorFeedRefusesLikeHistory pins the operation table's refusals to
// History's: every well-formedness refusal of History.Append, in a first
// window and after a cut that carried open operations over, and a second
// object in a window, which only its close refuses.
func TestMonitorFeedRefusesLikeHistory(t *testing.T) {
	fi := spec.MakeOp(spec.MethodFetchInc)
	inv := func(p int, obj string, op spec.Op) history.Event {
		return history.Event{Kind: history.KindInvoke, Proc: p, Obj: obj, Op: op}
	}
	res := func(p int, obj string, r int64) history.Event {
		return history.Event{Kind: history.KindRespond, Proc: p, Obj: obj, Resp: r}
	}
	// cut closes a stride-4 window and leaves p0 and p2 open: the next
	// window holds their invocations at events 0 and 1.
	cut := []history.Event{inv(0, "X", fi), inv(1, "X", fi), res(1, "X", 0), inv(2, "X", fi)}
	for _, c := range []struct {
		name    string
		stride  int
		events  []history.Event
		refused int // index of the refused event, -1 for a refusal at a close
	}{
		{"invoke while pending", 64, []history.Event{inv(0, "X", fi), inv(1, "X", fi), inv(1, "X", fi)}, 2},
		{"respond with nothing pending", 64, []history.Event{inv(0, "X", fi), res(1, "X", 0)}, 1},
		{"respond on another object", 64, []history.Event{inv(0, "X", fi), res(0, "Y", 0)}, 1},
		{"too many arguments", 64, []history.Event{inv(0, "X", spec.Op{Method: "op", NArgs: 3})}, 0},
		{"negative arguments", 64, []history.Event{inv(0, "X", fi), inv(1, "X", spec.Op{Method: "op", NArgs: -1})}, 1},
		{"zero kind", 64, []history.Event{inv(0, "X", fi), {Proc: 0, Obj: "X"}}, 1},
		{"unknown kind", 64, []history.Event{{Kind: 7, Proc: 0, Obj: "X"}}, 0},
		{"far process pending", 64, []history.Event{inv(5000, "X", fi), inv(-3, "X", fi), inv(5000, "X", fi)}, 2},
		{"far process idle", 64, []history.Event{inv(-3, "X", fi), res(-3, "X", 0), res(-3, "X", 0)}, 2},
		{"invoke on a carried row", 4, append(slices.Clone(cut), inv(2, "X", fi)), 4},
		{"respond on a carried row's object", 4, append(slices.Clone(cut), res(0, "Y", 3)), 4},
		{"respond after a carried row closed", 4, append(slices.Clone(cut), res(2, "X", 1), res(2, "X", 2)), 5},
		{"second object", 4, []history.Event{inv(0, "X", fi), inv(1, "Y", fi), res(0, "X", 0), res(1, "Y", 0)}, -1},
		{"second object carried over", 4, append(slices.Clone(cut), inv(1, "Y", fi), res(1, "Y", 0)), -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			at, err := feedLikeHistory(t, spec.NewObject(spec.FetchInc{}), c.stride, c.events)
			if at != c.refused || err == nil {
				t.Fatalf("refused event %d (error %v), want event %d", at, err, c.refused)
			}
		})
	}
}

// TestIncrementalWindowMaterializes pins the operation table the monitor
// writes on Feed to the window it used to keep as a History. At every
// closed window of fetch&inc and register streams, with open operations
// carried over the cuts and corrupted responses, the table's History() must
// fingerprint like a reference window built with History.Append and
// nextWindow, and Fill of it must give back the table's Ops and ByRes. The
// record format's limits (maxEvents, 256 methods, 65 536 objects) stay with
// History: a window meets them when it is materialized, not on Feed.
func TestIncrementalWindowMaterializes(t *testing.T) {
	windows := 0
	for _, c := range []struct {
		obj    spec.Object
		stride int
		stream func(*rand.Rand, gen.HistoryConfig) *history.History
	}{
		{spec.NewObject(spec.FetchInc{}), 64, gen.FetchInc},
		{spec.NewObject(spec.FetchInc{}), 37, gen.FetchInc},
		{spec.NewObject(spec.Register{}), 32, gen.Register},
	} {
		for _, bias := range []float64{0.3, 0.5} {
			for _, corrupt := range []float64{0, 0.05} {
				h := c.stream(rand.New(rand.NewSource(11)), gen.HistoryConfig{Procs: 4, Ops: 300, Corrupt: corrupt, PendingBias: bias})
				m := NewIncremental(c.obj, IncrementalConfig{Stride: c.stride, MaxT: -1})
				win := history.New()
				var fill history.OpTable
				// closed checks the window the last Feed or Finish closed,
				// which the cut left in m.spare.
				closed := func() {
					t.Helper()
					windows++
					got := materialize(t, &m.spare)
					if string(got.AppendFingerprint(nil)) != string(win.AppendFingerprint(nil)) {
						t.Fatalf("window %d: materialized\n%s\nreference\n%s", m.Checks(), got, win)
					}
					fill.Fill(got)
					if !slices.Equal(fill.Ops, m.spare.Ops) || !slices.Equal(fill.ByRes, m.spare.ByRes) || fill.Events != m.spare.Events {
						t.Fatalf("window %d: Fill of the materialized window differs from the table", m.Checks())
					}
					win = nextWindow(t, win)
				}
				for i := 0; i < h.Len(); i++ {
					e := h.Event(i)
					mustDo(t, win.Append(e))
					checks := m.Checks()
					if v, err := m.Feed(e); err != nil || v != nil {
						t.Fatalf("event %d: violation %v, error %v", i, v, err)
					}
					if m.Checks() > checks {
						closed()
					}
				}
				if _, err := m.Finish(); err != nil {
					t.Fatal(err)
				}
				if win.Len() > 0 {
					closed()
				}
			}
		}
	}
	if windows < 100 {
		t.Fatalf("only %d windows were compared", windows)
	}
}

// feedThenAdvance runs the events of h through two monitors built alike:
// one fed them one by one, the other advanced over h in chunks of the sizes
// chunk draws. It fails t unless both stop at the same violation or error
// and then end alike: Finish's answer, Events, Checks, Samples, Sampling,
// and the violation down to its window's text and rebased object.
func feedThenAdvance(t *testing.T, obj spec.Object, cfg IncrementalConfig, h *history.History, chunk func() int) {
	t.Helper()
	fed, adv := NewIncremental(obj, cfg), NewIncremental(obj, cfg)
	var fv, av *WindowViolation
	var ferr, aerr error
	for i := 0; i < h.Len() && fv == nil && ferr == nil; i++ {
		fv, ferr = fed.Feed(h.Event(i))
	}
	for adv.Events() < h.Len() && av == nil && aerr == nil {
		av, aerr = adv.Advance(h, min(h.Len(), adv.Events()+chunk()))
	}
	if fmt.Sprint(ferr) != fmt.Sprint(aerr) || fv != fed.Violation() || av != adv.Violation() {
		t.Fatalf("Feed stopped on %v, %v; Advance on %v, %v", fv, ferr, av, aerr)
	}
	fv, ferr = fed.Finish()
	av, aerr = adv.Finish()
	if fmt.Sprint(ferr) != fmt.Sprint(aerr) || (fv == nil) != (av == nil) {
		t.Fatalf("Finish: Feed %v, %v; Advance %v, %v", fv, ferr, av, aerr)
	}
	if fed.Events() != adv.Events() || fed.Checks() != adv.Checks() || fed.Sampling() != adv.Sampling() ||
		!slices.Equal(fed.Samples(), adv.Samples()) {
		t.Fatalf("Feed: %d events, %d checks, %+v, samples %v\nAdvance: %d events, %d checks, %+v, samples %v",
			fed.Events(), fed.Checks(), fed.Sampling(), fed.Samples(), adv.Events(), adv.Checks(), adv.Sampling(), adv.Samples())
	}
	if fv != nil && (fv.Start != av.Start || fv.End != av.End || fv.MinT != av.MinT || fv.MaxT != av.MaxT ||
		fv.Window.String() != av.Window.String() || !reflect.DeepEqual(fv.Object, av.Object)) {
		t.Fatalf("Feed's violation %v on\n%s(object %v)\nAdvance's %v on\n%s(object %v)",
			fv, fv.Window, fv.Object, av, av.Window, av.Object)
	}
}

// TestAdvanceMatchesFeed pins Advance to Feed: over fetch&inc and register
// histories with open operations carried over the cuts, and with corrupted
// responses for violations, a monitor advanced in random chunks, in chunks
// of one and in one chunk must end exactly as one fed event by event. The
// register windows at stride 512 exceed the generic engine's operation cap,
// so there the two must fail alike.
func TestAdvanceMatchesFeed(t *testing.T) {
	runs, violations := 0, 0
	for _, c := range []struct {
		obj    spec.Object
		stream func(*rand.Rand, gen.HistoryConfig) *history.History
	}{
		{spec.NewObject(spec.FetchInc{}), gen.FetchInc},
		{spec.NewObject(spec.Register{}), gen.Register},
	} {
		for _, stride := range []int{7, 32, 512} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, corrupt := range []float64{0, 0.02} {
					h := c.stream(rand.New(rand.NewSource(seed)), gen.HistoryConfig{Procs: 4, Ops: 700, Corrupt: corrupt, PendingBias: 0.4})
					r := rand.New(rand.NewSource(seed))
					for _, chunk := range []func() int{
						func() int { return 1 + r.Intn(900) },
						func() int { return 1 },
						func() int { return h.Len() },
					} {
						feedThenAdvance(t, c.obj, IncrementalConfig{Stride: stride}, h, chunk)
						runs++
					}
					if m := NewIncremental(c.obj, IncrementalConfig{Stride: stride}); corrupt > 0 {
						if v, _ := m.Advance(h, h.Len()); v != nil {
							violations++
						}
					}
				}
			}
		}
	}
	if runs != 108 || violations < 6 {
		t.Fatalf("%d runs, %d with a violation", runs, violations)
	}
}
