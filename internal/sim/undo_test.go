package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
)

// observe captures everything externally visible about a configuration.
func observe(s *System) string {
	baseStates := fmt.Sprintf("%v", s.BaseStates())
	stab := fmt.Sprintf("%v", s.StabilizedAt())
	var progress string
	for p := 0; p < s.NumProcs(); p++ {
		progress += fmt.Sprintf("p%d:%d/%v ", p, s.OpsBegun(p), s.Running(p))
	}
	baseHist := ""
	if s.BaseHistory() != nil {
		baseHist = s.BaseHistory().String()
	}
	return fmt.Sprintf("steps=%d enabled=%v\n%s\n%s\n%s\nhist:\n%s\nbase:\n%s",
		s.Steps(), s.Enabled(), progress, baseStates, stab, s.History().String(), baseHist)
}

func TestUndoRestoresObservableState(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(2, 2, fetchinc), nil, check.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableUndo()
	before := observe(sys)
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	if observe(sys) == before {
		t.Fatal("advance did not change the observable state")
	}
	if err := sys.Undo(); err != nil {
		t.Fatal(err)
	}
	if got := observe(sys); got != before {
		t.Fatalf("undo did not restore the configuration:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if err := sys.Undo(); err == nil {
		t.Fatal("undo on an empty log must fail")
	}
}

// TestUndoRandomWalkMatchesReplay drives a random walk of advances and
// undos on one system and checks that every configuration it passes
// through is identical (in all observable respects) to a fresh system
// advanced along the same remaining path.
func TestUndoRandomWalkMatchesReplay(t *testing.T) {
	impls := []struct {
		name string
		mk   func() (*System, error)
	}{
		{"cas-counter", func() (*System, error) {
			return NewSystem(counter.CAS{}, UniformWorkload(2, 2, fetchinc), nil, check.Options{}, true)
		}},
		{"el-consensus", func() (*System, error) {
			return NewSystem(elconsensus.Impl{}, UniformWorkloadProposals(2, 1),
				base.SamePolicy(base.Window{K: 1}), check.Options{}, false)
		}},
	}
	for _, tc := range impls {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			sys, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			sys.EnableUndo()
			type move struct {
				p, branch int
			}
			var path []move
			for i := 0; i < 300; i++ {
				if undoDepth(sys) > 0 && (r.Intn(3) == 0 || sys.Done()) {
					if err := sys.Undo(); err != nil {
						t.Fatal(err)
					}
					path = path[:len(path)-1]
				} else if !sys.Done() {
					enabled := sys.Enabled()
					p := enabled[r.Intn(len(enabled))]
					cands, err := sys.Candidates(p)
					if err != nil {
						t.Fatal(err)
					}
					branch := r.Intn(len(cands))
					if err := sys.Advance(p, branch); err != nil {
						t.Fatal(err)
					}
					path = append(path, move{p, branch})
				}
				if i%20 != 0 {
					continue
				}
				// Replay the current path on a fresh system and compare.
				fresh, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range path {
					if err := fresh.Advance(m.p, m.branch); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := observe(sys), observe(fresh); got != want {
					t.Fatalf("step %d: walked configuration diverges from replay:\nwalk:\n%s\nreplay:\n%s",
						i, got, want)
				}
			}
		})
	}
}

func TestUndoRestoresStabilizationPoint(t *testing.T) {
	sys, err := NewSystem(elconsensus.Impl{}, UniformWorkloadProposals(2, 1),
		base.SamePolicy(base.Window{K: 1}), check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableUndo()
	// Advance until some base stabilizes, then undo everything and check
	// all bases are unstabilized again.
	stabilized := func() bool {
		for _, at := range sys.StabilizedAt() {
			if at >= 0 {
				return true
			}
		}
		return false
	}
	guard := 0
	for !stabilized() && !sys.Done() {
		if err := sys.Advance(sys.Enabled()[0], 0); err != nil {
			t.Fatal(err)
		}
		if guard++; guard > 1000 {
			t.Fatal("no base stabilized")
		}
	}
	if !stabilized() {
		t.Fatal("workload finished without stabilization")
	}
	for undoDepth(sys) > 0 {
		if err := sys.Undo(); err != nil {
			t.Fatal(err)
		}
	}
	if stabilized() {
		t.Fatalf("stabilization survived a full unwind: %v", sys.StabilizedAt())
	}
}

func TestAdvanceRespValidatesReturns(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(1, 1, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	// read, cas → the third step is the return.
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	act, _, err := sys.NextAction(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AdvanceResp(0, act.Ret+99); err == nil {
		t.Fatal("return action accepted a wrong response")
	}
	if err := sys.AdvanceResp(0, act.Ret); err != nil {
		t.Fatal(err)
	}
	if !sys.Done() {
		t.Fatal("workload should be complete")
	}
}

func TestCandidatesAppendReusesBuffer(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(2, 1, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 0, 8)
	got, err := sys.CandidatesAppend(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || &got[0] != &buf[:1][0] {
		t.Fatal("CandidatesAppend did not reuse the caller's buffer")
	}
	fresh, err := sys.Candidates(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatalf("Candidates %v != CandidatesAppend %v", fresh, got)
	}
}

func TestEnabledVariantsAgree(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(3, 1, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for !sys.Done() {
		enabled := sys.Enabled()
		if got := sys.AppendEnabled(nil); !reflect.DeepEqual(got, enabled) {
			t.Fatalf("AppendEnabled %v != Enabled %v", got, enabled)
		}
		if sys.EnabledCount() != len(enabled) {
			t.Fatalf("EnabledCount %d != len(Enabled) %d", sys.EnabledCount(), len(enabled))
		}
		for p := 0; p < sys.NumProcs(); p++ {
			want := false
			for _, q := range enabled {
				if q == p {
					want = true
				}
			}
			if sys.CanStep(p) != want {
				t.Fatalf("CanStep(%d) = %v, enabled %v", p, sys.CanStep(p), enabled)
			}
		}
		if err := sys.Advance(enabled[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	if sys.EnabledCount() != 0 || sys.Enabled() != nil {
		t.Fatal("done system still reports enabled processes")
	}
}

func TestEnabledDoesNotAllocateOnHotPath(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(2, 1, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		buf = sys.AppendEnabled(buf[:0])
		_ = sys.EnabledCount()
		_ = sys.Done()
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocates %.1f per run", allocs)
	}
}

// undoDepth returns the number of recorded steps available to Undo.
func undoDepth(s *System) int { return len(s.undo) }
