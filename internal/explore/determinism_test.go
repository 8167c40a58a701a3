package explore

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// ndImpl is a deliberately nondeterministic implementation: its processes
// share a mutable counter that Clone does NOT deep-copy, so two clones of
// the same programme stepped identically observe different counter values
// and return different actions — exactly the contract violation
// CheckDeterminism exists to catch.
type ndImpl struct{}

func (ndImpl) Name() string          { return "nondet" }
func (ndImpl) Spec() spec.Object     { return spec.NewObject(spec.Register{}) }
func (ndImpl) Bases() []machine.Base { return nil }
func (ndImpl) NewProcess(p, n int) machine.Process {
	shared := new(int64)
	return &ndProc{shared: shared}
}

type ndProc struct {
	shared *int64 // aliased, not cloned: the nondeterminism source
}

func (p *ndProc) Begin(op spec.Op) {}
func (p *ndProc) Step(resp int64) machine.Action {
	*p.shared++
	return machine.Return(*p.shared % 2)
}
func (p *ndProc) Clone() machine.Process {
	cp := *p // shallow: cp.shared aliases p.shared
	return &cp
}

func ndRoot(t *testing.T) *sim.System {
	t.Helper()
	workload := [][]spec.Op{{spec.MakeOp(spec.MethodRead)}, {spec.MakeOp(spec.MethodRead)}}
	root, err := sim.NewSystem(ndImpl{}, workload, nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestCheckDeterminismCatchesNondetProgramme: every entry point builds its
// engines through the one constructor, so Config.CheckDeterminism turns the
// divergence into a hard error everywhere, sequentially and in parallel.
// (Analyze at one worker and FindStable at any count used to build theirs
// with the zero Config and explored the programme silently.)
func TestCheckDeterminismCatchesNondetProgramme(t *testing.T) {
	entries := []struct {
		name string
		run  func(root *sim.System, cfg Config) error
	}{
		{"Leaves", func(root *sim.System, cfg Config) error {
			_, err := Leaves(root, 4, cfg, noLeaf)
			return err
		}},
		{"LinearizableEverywhere", func(root *sim.System, cfg Config) error {
			_, _, _, err := LinearizableEverywhere(root, 4, cfg, check.Options{})
			return err
		}},
		{"WeaklyConsistentEverywhere", func(root *sim.System, cfg Config) error {
			_, _, _, err := WeaklyConsistentEverywhere(root, 4, cfg, check.Options{})
			return err
		}},
		{"Analyze", func(root *sim.System, cfg Config) error {
			_, err := Analyze(root, 4, cfg)
			return err
		}},
		{"NodeStable", func(root *sim.System, cfg Config) error {
			_, _, err := NodeStable(root, 4, cfg, check.Options{})
			return err
		}},
		{"FindStable", func(root *sim.System, cfg Config) error {
			_, err := FindStable(root, 2, 4, cfg, check.Options{})
			return err
		}},
	}
	for _, en := range entries {
		// Without the check the nondeterministic programme explores
		// silently (one arbitrary behaviour per node): no entry point may
		// fail, FindStable's "nothing found" included (it is a result, not
		// an error).
		if err := en.run(ndRoot(t), Config{Workers: 1}); err != nil {
			t.Errorf("%s unchecked: %v", en.name, err)
		}
		for _, workers := range []int{1, 4} {
			err := en.run(ndRoot(t), Config{Workers: workers, CheckDeterminism: true})
			if err == nil || !strings.Contains(err.Error(), "nondeterministic") {
				t.Errorf("%s workers=%d: err = %v, want nondeterminism error", en.name, workers, err)
			}
		}
	}
}

func TestCheckDeterminismPassesDeterministicImpl(t *testing.T) {
	workload := sim.UniformWorkload(2, 1, spec.MakeOp(spec.MethodFetchInc))
	root, err := sim.NewSystem(counter.CAS{}, workload, nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Leaves(root, 12, Config{}, noLeaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		st, err := Leaves(root, 12, Config{Workers: workers, CheckDeterminism: true}, noLeaf)
		if err != nil {
			t.Fatalf("workers=%d: deterministic impl flagged: %v", workers, err)
		}
		if st != base {
			t.Errorf("workers=%d: stats with check %+v != without %+v", workers, st, base)
		}
	}
}
