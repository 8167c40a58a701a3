package check

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// Property: MinT is monotone under prefixes (a consequence of Lemma 6): a
// prefix never needs a larger cut than the full history.
func TestQuickMinTPrefixMonotone(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.FetchInc(r, gen.HistoryConfig{Procs: 3, Ops: 10, Corrupt: 0.4, PendingBias: 0.2})
		full, ok, err := MinT(obj, h, Options{})
		if err != nil || !ok {
			return false
		}
		for k := 0; k <= h.Len(); k += 3 {
			pre, ok, err := MinT(obj, h.Prefix(k), Options{})
			if err != nil || !ok {
				return false
			}
			if pre > full {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a history is 0-linearizable iff MinT is 0.
func TestQuickMinTZeroIffLinearizable(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.FetchInc(r, gen.HistoryConfig{Procs: 2, Ops: 8, Corrupt: 0.3})
		lin, err := TLinearizable(obj, h, 0, Options{})
		if err != nil {
			return false
		}
		mt, ok, err := MinT(obj, h, Options{})
		if err != nil || !ok {
			return false
		}
		return lin == (mt == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: weak consistency is implied by linearizability (a legal
// 0-linearization restricted appropriately witnesses Definition 1).
func TestQuickLinearizableImpliesWeaklyConsistent(t *testing.T) {
	objs := map[string]spec.Object{"X": spec.NewObject(spec.Register{})}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 8, Corrupt: 0.3})
		lin, err := Linearizable(objs, h, Options{})
		if err != nil {
			return false
		}
		if !lin {
			return true // implication vacuous
		}
		wc, err := WeaklyConsistent(objs, h, Options{})
		if err != nil {
			return false
		}
		return wc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: exact multi-object MinT never exceeds the Lemma 7 lift, and
// the lift is itself sufficient.
func TestQuickMinTMultiBelowLift(t *testing.T) {
	objs := map[string]spec.Object{
		"X": spec.NewObject(spec.Register{}),
		"Y": spec.NewObject(spec.FetchInc{}),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTwoObjectHistory(r, 3, 6, 0.3)
		exact, ok, err := minTMulti(objs, h, Options{})
		if err != nil || !ok {
			return false
		}
		lift, err := MinTGlobalUpper(objs, h, Options{})
		if err != nil {
			return false
		}
		return exact <= lift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every response enumerated by AppendWeakResponses is accepted by the
// weak-consistency checker once appended, and every other small value is
// rejected (soundness and completeness of the candidate set).
func TestQuickWeakResponsesExact(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	objs := map[string]spec.Object{"X": obj}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 6})
		// Append a fresh pending read by a new process.
		if err := h.Invoke(3, "X", spec.MakeOp(spec.MethodRead)); err != nil {
			return false
		}
		cands, err := weakResponses(obj, h, 3, Options{})
		if err != nil {
			return false
		}
		inCands := make(map[int64]bool, len(cands))
		for _, c := range cands {
			inCands[c] = true
		}
		for v := int64(-1); v <= 5; v++ {
			probe := h.Clone()
			if err := probe.Respond(3, v); err != nil {
				return false
			}
			wc, err := WeaklyConsistent(objs, probe, Options{})
			if err != nil {
				return false
			}
			if wc != inCands[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the O(n) merge the engines take their constraints from equals
// the pairwise definition the auditor keeps, at every cut of register and
// fetch&inc prefixes with pending operations and wrong responses.
func TestQuickTableConstraintsMatchPairwise(t *testing.T) {
	var tb history.OpTable
	var pred []uint64
	f := func(seed int64, fetchInc bool) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.HistoryConfig{Procs: 4, Ops: 24, Corrupt: 0.2, PendingBias: 0.5}
		h := gen.Register(r, cfg)
		if fetchInc {
			h = gen.FetchInc(r, cfg)
		}
		h = h.Prefix(r.Intn(h.Len() + 1))
		tb.Fill(h)
		for cut := 0; cut <= h.Len(); cut++ {
			wantPred, wantCons, wantComp := opConstraints(tb.Ops, cut)
			var cons, comp uint64
			pred, cons, comp = tableConstraints(&tb, cut, pred)
			if !slices.Equal(pred, wantPred) || cons != wantCons || comp != wantComp {
				t.Logf("t=%d on\n%s\nmerge %x %x %x, pairwise %x %x %x", cut, h, pred, cons, comp, wantPred, wantCons, wantComp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: NoMemo changes performance, never answers.
func TestQuickMemoAblationSameAnswers(t *testing.T) {
	objs := map[string]spec.Object{"X": spec.NewObject(spec.Register{})}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 6, Corrupt: 0.4})
		a, err := Linearizable(objs, h, Options{})
		if err != nil {
			return false
		}
		b, err := Linearizable(objs, h, Options{NoMemo: true})
		if err != nil {
			return false
		}
		if a != b {
			return false
		}
		// The inputs to the same search: the line-13 decision on a register
		// and a queue, Definition 1's response set and the product state.
		memo, noMemo := Options{NoFastPath: true}, Options{NoFastPath: true, NoMemo: true}
		for kind := range 2 { // register, queue
			data := make([]byte, 2+r.Intn(6))
			r.Read(data)
			data[0] = byte(kind)
			c := decodeSeqCase(data)
			resp := c.kind.resps[r.Intn(len(c.kind.resps))]
			a, errA := SequentialWitness(c.kind.obj, c.must, c.opt, c.final, resp, memo)
			b, errB := SequentialWitness(c.kind.obj, c.must, c.opt, c.final, resp, noMemo)
			if errA != nil || errB != nil || a != b {
				return false
			}
		}
		if err := h.Invoke(3, "X", rd); err != nil {
			return false
		}
		setA, errA := weakResponses(objs["X"], h, 3, memo)
		setB, errB := weakResponses(objs["X"], h, 3, noMemo)
		if errA != nil || errB != nil || !slices.Equal(setA, setB) {
			return false
		}
		two := map[string]spec.Object{"X": spec.NewObject(spec.Register{}), "Y": spec.NewObject(spec.FetchInc{})}
		h2 := randomTwoObjectHistory(r, 3, 6, 0.3)
		cut := r.Intn(h2.Len() + 1)
		a, errA = TLinearizableMulti(two, h2, cut, Options{})
		b, errB = TLinearizableMulti(two, h2, cut, Options{NoMemo: true})
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on a sequential history — one process, corrupted or not, with
// or without a pending invocation at its end — Legal is linearizability,
// kernel and generic engine alike.
func TestQuickLegalMatchesTLinearizable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.HistoryConfig{Procs: 1, Ops: 1 + r.Intn(MaxOpsPerObject), Corrupt: float64(r.Intn(3)) * 0.05, PendingBias: 0.3}
		coin := spec.NewObject(coinType())
		cases := []struct {
			obj spec.Object
			h   *history.History
		}{
			{spec.NewObject(spec.Register{}), gen.Register(r, cfg)},
			{spec.NewObject(spec.FetchInc{}), gen.FetchInc(r, cfg)},
			{coin, typeHistory(r, coin, coinType().Ops, 1, cfg.Ops, cfg.Corrupt)},
		}
		for _, c := range cases {
			h := c.h.Prefix(r.Intn(c.h.Len() + 1))
			legal, err := Legal(map[string]spec.Object{"X": c.obj}, h)
			if err != nil {
				t.Logf("%s: Legal: %v\n%s", c.obj.Type.Name(), err, h)
				return false
			}
			for _, opts := range []Options{{}, {NoFastPath: true}} {
				lin, err := TLinearizable(c.obj, h, 0, opts)
				if err != nil || lin != legal {
					t.Logf("%s: Legal %v, TLinearizable(%+v) %v, %v\n%s", c.obj.Type.Name(), legal, opts, lin, err, h)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: TrackMinT's one pass, which extends a single table and reuses a
// single scratch, samples what MinT answers on a fresh table of each prefix,
// on register and fetch&inc histories with pending and corrupted responses,
// kernel and generic engine alike.
func TestQuickTrackMinTMatchesPrefixMinT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.HistoryConfig{Procs: 3, Ops: 4 + r.Intn(7), Corrupt: 0.3, PendingBias: 0.5}
		cases := []struct {
			obj spec.Object
			h   *history.History
		}{
			{spec.NewObject(spec.Register{}), gen.Register(r, cfg)},
			{spec.NewObject(spec.FetchInc{}), gen.FetchInc(r, cfg)},
		}
		stride := 1 + r.Intn(4)
		for _, c := range cases {
			for _, opts := range []Options{{}, {NoFastPath: true}} {
				v, err := TrackMinT(c.obj, c.h, stride, opts)
				if err != nil {
					t.Logf("%s: TrackMinT(%+v): %v\n%s", c.obj.Type.Name(), opts, err, c.h)
					return false
				}
				for i, s := range v.Samples {
					if want := min((i+1)*stride, c.h.Len()); s.Events != want {
						t.Logf("sample %d covers %d events, want %d", i, s.Events, want)
						return false
					}
					mt, ok, err := MinT(c.obj, c.h.Prefix(s.Events), opts)
					if err != nil || !ok || mt != s.MinT {
						t.Logf("%s (%+v) prefix %d: TrackMinT %d, MinT %d, %v, %v\n%s",
							c.obj.Type.Name(), opts, s.Events, s.MinT, mt, ok, err, c.h)
						return false
					}
				}
				if last := v.Samples[len(v.Samples)-1]; last.Events != c.h.Len() || v.FinalMinT != last.MinT {
					t.Logf("last sample %+v, FinalMinT %d, history of %d events", last, v.FinalMinT, c.h.Len())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
