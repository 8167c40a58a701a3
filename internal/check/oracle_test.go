package check

import (
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// minTBisect is MinT as it was before the t = 0 probe: decide t = Len, then
// bisect [0, Len]. Kept as the oracle the probe-first search is pinned to.
func minTBisect(obj spec.Object, h *history.History, opts Options) (int, bool, error) {
	ok, err := TLinearizable(obj, h, h.Len(), opts)
	if err != nil || !ok {
		return 0, false, err
	}
	lo, hi := 0, h.Len()
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := TLinearizable(obj, h, mid, opts)
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true, nil
}

// TestMinTMatchesBisect pins the probe-first MinT to the old full bisection
// on the fetch&inc kernel, the consensus kernel and the generic engine, on
// linearizable histories (the probe answers) and on ones that are not (the
// bisection over (0, Len] answers).
func TestMinTMatchesBisect(t *testing.T) {
	type tc struct {
		name string
		obj  spec.Object
		h    *history.History
		opts Options
	}
	var cases []tc
	fi := spec.NewObject(spec.FetchInc{})
	reg := spec.NewObject(spec.Register{})
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		corrupt := float64(seed%3) * 0.2 // every third seed is a correct history
		cases = append(cases,
			tc{"fetchinc", fi, gen.FetchInc(r, gen.HistoryConfig{Procs: 3, Ops: 40, Corrupt: corrupt, PendingBias: 0.3}), Options{}},
			tc{"fetchinc-generic", fi, gen.FetchInc(r, gen.HistoryConfig{Procs: 3, Ops: 10, Corrupt: corrupt, PendingBias: 0.3}), Options{NoFastPath: true}},
			tc{"register", reg, gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 12, Corrupt: corrupt, PendingBias: 0.3}), Options{}},
			tc{"consensus", consX["X"], typeHistory(r, consX["X"], propOps[:6], 3, 8, corrupt), Options{}},
		)
	}
	s32, err := gen.Section32Counterexample(20)
	if err != nil {
		t.Fatal(err)
	}
	sloppy, err := gen.SloppyTrace(24, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"section-3.2", fi, s32, Options{}}, tc{"sloppy", fi, sloppy, Options{}},
		tc{"empty", fi, history.New(), Options{}})

	positive := 0
	for i, c := range cases {
		got, gotOK, err := MinT(c.obj, c.h, c.opts)
		if err != nil {
			t.Fatalf("%s #%d: MinT: %v", c.name, i, err)
		}
		want, wantOK, err := minTBisect(c.obj, c.h, c.opts)
		if err != nil {
			t.Fatalf("%s #%d: minTBisect: %v", c.name, i, err)
		}
		if got != want || gotOK != wantOK {
			t.Errorf("%s #%d: MinT = %d,%v; bisect from Len = %d,%v\n%s", c.name, i, got, gotOK, want, wantOK, c.h)
		}
		if want > 0 {
			positive++
		}
	}
	if positive < 40 || positive > len(cases)-40 {
		t.Fatalf("%d of %d histories have MinT > 0; want both branches well covered", positive, len(cases))
	}
}

// TestMinTProbeBudgetFallsThrough: under budgets small enough that the t = 0
// probe often runs out, MinT must still return every verdict the old
// bisection returns (the probe's ErrBudget falls through to it), and any
// verdict it does return must be the exact one.
func TestMinTProbeBudgetFallsThrough(t *testing.T) {
	reg := spec.NewObject(spec.Register{})
	for seed := int64(0); seed < 200; seed++ {
		h := gen.Register(rand.New(rand.NewSource(seed)), gen.HistoryConfig{Procs: 4, Ops: 14, Corrupt: 0.2, PendingBias: 0.5})
		for _, budget := range []int64{4, 16, 64} {
			opts := Options{Budget: budget}
			want, wantOK, wantErr := minTBisect(reg, h, opts)
			got, gotOK, err := MinT(reg, h, opts)
			if wantErr == nil && (err != nil || got != want || gotOK != wantOK) {
				t.Fatalf("seed %d budget %d: MinT = %d,%v,%v; bisect from Len = %d,%v", seed, budget, got, gotOK, err, want, wantOK)
			}
			if err == nil {
				if exact, _, _ := MinT(reg, h, Options{}); got != exact {
					t.Fatalf("seed %d budget %d: MinT = %d under budget, %d without", seed, budget, got, exact)
				}
			}
		}
	}
}

// fuzzFetchIncHistory decodes a byte string into a well-formed history of at
// most 12 operations on 4 processes on a fetch&inc object, an initial value
// and a cut: byte 0 is the initial value, byte 1 the cut, and every further
// byte either invokes on its process (low two bits) — a fetchinc, or a read,
// which fetch&inc cannot apply, when the high six bits are 60 or more — or,
// if that process has an operation pending, answers it with those six bits.
func fuzzFetchIncHistory(data []byte) (spec.Object, *history.History, int) {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	init := int64(data[0] % 4)
	h := history.New()
	var pending [4]bool
	invoked := 0
	for _, b := range data[2:] {
		p := int(b & 3)
		switch {
		case pending[p]:
			_ = h.Respond(p, int64(b>>2)) // p has a pending invocation: cannot fail
			pending[p] = false
		case invoked < 12:
			op := fi
			if b>>2 >= 60 {
				op = rd
			}
			_ = h.Invoke(p, "X", op) // p is idle: cannot fail
			pending[p] = true
			invoked++
		}
	}
	return spec.Object{Type: spec.FetchInc{InitVal: init}, Init: spec.IntState(init)}, h, int(data[1]) % (h.Len() + 1)
}

// FuzzFetchIncTLinearizable: the Lemma 17 kernel's verdict must equal the
// generic engine's on any well-formed history and cut on a fetch&inc object,
// reads it cannot apply included. The seed
// corpus is testdata/fuzz/FuzzFetchIncTLinearizable.
func FuzzFetchIncTLinearizable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, h, cut := fuzzFetchIncHistory(data)
		fast, err := TLinearizable(obj, h, cut, Options{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := TLinearizable(obj, h, cut, Options{NoFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("init %v t=%d: kernel=%v generic=%v\n%s", obj.Init, cut, fast, slow, h)
		}
	})
}
