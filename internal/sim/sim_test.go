package sim

import (
	"testing"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/eltestset"
	"github.com/elin-go/elin/internal/spec"
)

var fetchinc = spec.MakeOp(spec.MethodFetchInc)

func implObjs(impl interface {
	Name() string
	Spec() spec.Object
}) map[string]spec.Object {
	return map[string]spec.Object{impl.Name(): impl.Spec()}
}

func TestCASCounterLinearizable(t *testing.T) {
	impl := counter.CAS{}
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(Config{
			Impl:      impl,
			Workload:  UniformWorkload(3, 4, fetchinc),
			Scheduler: Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d timed out", seed)
		}
		ok, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: CAS counter produced a non-linearizable history\n%s", seed, res.History)
		}
	}
}

func TestCASCounterCompletesAllOps(t *testing.T) {
	res, err := Run(Config{
		Impl:     counter.CAS{},
		Workload: UniformWorkload(4, 5, fetchinc),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range res.OpsCompleted {
		if n != 5 {
			t.Errorf("p%d completed %d ops, want 5", p, n)
		}
	}
	if res.History.Len() != 4*5*2 {
		t.Errorf("history length = %d, want 40", res.History.Len())
	}
}

func TestSloppyCounterWeaklyConsistentButNotLinearizable(t *testing.T) {
	impl := counter.Sloppy{}
	sawViolation := false
	for seed := int64(0); seed < 30; seed++ {
		res, err := Run(Config{
			Impl:      impl,
			Workload:  UniformWorkload(3, 3, fetchinc),
			Scheduler: Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		wc, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !wc {
			t.Fatalf("seed %d: sloppy counter violated weak consistency\n%s", seed, res.History)
		}
		lin, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !lin {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("sloppy counter never violated linearizability across 30 random schedules")
	}
}

func TestSloppyCounterSoloIsAtomic(t *testing.T) {
	// With a single process the sloppy counter is exact.
	impl := counter.Sloppy{}
	res, err := Run(Config{
		Impl:     impl,
		Workload: UniformWorkload(1, 6, fetchinc),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
	if err != nil || !ok {
		t.Fatalf("solo sloppy counter not linearizable: %v %v\n%s", ok, err, res.History)
	}
}

func TestWarmupCounterEventuallyLinearizable(t *testing.T) {
	impl := counter.Warmup{Threshold: 6}
	obj := impl.Spec()
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(Config{
			Impl:      impl,
			Workload:  UniformWorkload(2, 10, fetchinc),
			Scheduler: Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		wc, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
		if err != nil || !wc {
			t.Fatalf("seed %d: warmup counter not weakly consistent: %v %v", seed, wc, err)
		}
		v, err := check.TrackMinT(obj, res.History, 8, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v.Trend == check.TrendDiverging {
			t.Fatalf("seed %d: warmup counter diverging: %+v", seed, v.Samples)
		}
		// MinT must be bounded by (roughly) the warmup region: all garbage
		// answers happen among the first Threshold completed operations.
		if v.FinalMinT > 2*6+4 {
			t.Fatalf("seed %d: final MinT %d exceeds warmup region", seed, v.FinalMinT)
		}
	}
}

func TestELConsensusEventuallyLinearizable(t *testing.T) {
	impl := elconsensus.Impl{}
	objs := implObjs(impl)
	n := 3
	for seed := int64(0); seed < 15; seed++ {
		// Each process proposes its id+1 three times (re-proposing is
		// allowed for consensus: later proposes return the decided value).
		w := make([][]spec.Op, n)
		for p := 0; p < n; p++ {
			for k := 0; k < 3; k++ {
				w[p] = append(w[p], spec.MakeOp1(spec.MethodPropose, int64(p+1)))
			}
		}
		res, err := Run(Config{
			Impl:      impl,
			Workload:  w,
			Scheduler: Random{},
			Chooser:   StaleChooser{},
			Policies:  base.SamePolicy(base.Window{K: 2}),
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d: consensus timed out (not wait-free?)", seed)
		}
		wc, err := check.WeaklyConsistent(objs, res.History, check.Options{})
		if err != nil || !wc {
			t.Fatalf("seed %d: not weakly consistent: %v %v\n%s", seed, wc, err, res.History)
		}
		mt, ok, err := check.MinT(impl.Spec(), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: consensus history not t-linearizable for any t", seed)
		}
		if mt > res.History.Len() {
			t.Fatalf("seed %d: MinT %d out of range", seed, mt)
		}
	}
}

func TestELConsensusAtomicBasesStillCorrect(t *testing.T) {
	impl := elconsensus.Impl{AtomicBases: true}
	res, err := Run(Config{
		Impl:      impl,
		Workload:  UniformWorkloadProposals(3, 2),
		Scheduler: RoundRobin{},
		Seed:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
	if err != nil || !wc {
		t.Fatalf("not weakly consistent: %v %v", wc, err)
	}
}

// UniformWorkloadProposals builds a proposal workload where process p
// proposes p+1, reps times.
func UniformWorkloadProposals(n, reps int) [][]spec.Op {
	w := make([][]spec.Op, n)
	for p := 0; p < n; p++ {
		for k := 0; k < reps; k++ {
			w[p] = append(w[p], spec.MakeOp1(spec.MethodPropose, int64(p+1)))
		}
	}
	return w
}

func TestELTestSetHistories(t *testing.T) {
	impl := eltestset.Local{}
	objs := implObjs(impl)
	res, err := Run(Config{
		Impl:      impl,
		Workload:  UniformWorkload(3, 3, spec.MakeOp(spec.MethodTestSet)),
		Scheduler: Random{},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := check.WeaklyConsistent(objs, res.History, check.Options{})
	if err != nil || !wc {
		t.Fatalf("el-testset not weakly consistent: %v %v", wc, err)
	}
	// Three processes each return 0 once: not linearizable (only one 0
	// allowed), but t-linearizable once the first-ops prefix passes.
	lin, err := check.Linearizable(objs, res.History, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin {
		t.Fatal("three zeros should not be linearizable")
	}
	mt, ok, err := check.MinT(impl.Spec(), res.History, check.Options{})
	if err != nil || !ok {
		t.Fatalf("MinT: %v %v", ok, err)
	}
	if mt == 0 || mt > res.History.Len() {
		t.Fatalf("MinT = %d, want in (0, len]", mt)
	}
}

func TestCASTestSetLinearizable(t *testing.T) {
	impl := eltestset.FromCAS{}
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(Config{
			Impl:      impl,
			Workload:  UniformWorkload(3, 2, spec.MakeOp(spec.MethodTestSet)),
			Scheduler: Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
		if err != nil || !ok {
			t.Fatalf("seed %d: cas-testset not linearizable: %v %v", seed, ok, err)
		}
	}
}

func TestStabilizedAtTracking(t *testing.T) {
	impl := elconsensus.Impl{}
	res, err := Run(Config{
		Impl:     impl,
		Workload: UniformWorkloadProposals(2, 2),
		Policies: base.SamePolicy(base.Window{K: 1}),
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StabilizedAt) == 0 {
		t.Fatal("no eventually linearizable bases tracked")
	}
	stabilizedSomething := false
	for name, at := range res.StabilizedAt {
		if at >= 0 {
			stabilizedSomething = true
		}
		if at > res.History.Len() {
			t.Errorf("base %s stabilized at %d > history length", name, at)
		}
	}
	if !stabilizedSomething {
		t.Error("window(1) never stabilized any base")
	}
}

func TestBaseHistoryRecording(t *testing.T) {
	res, err := Run(Config{
		Impl:       counter.CAS{},
		Workload:   UniformWorkload(2, 2, fetchinc),
		Seed:       0,
		RecordBase: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseHistory == nil || res.BaseHistory.Len() == 0 {
		t.Fatal("base history not recorded")
	}
	// Base history is sequential (atomic actions) and on base object names.
	if !res.BaseHistory.Sequential() {
		t.Error("base history should be sequential")
	}
	for _, obj := range res.BaseHistory.Objects() {
		if obj != "C" {
			t.Errorf("unexpected base object %q", obj)
		}
	}
}

func TestSchedulers(t *testing.T) {
	enabled := []int{0, 1, 2}
	if (RoundRobin{}).Pick(enabled, 4, nil) != enabled[1] {
		t.Error("round robin pick")
	}
	if got := (Solo{P: 2}).Pick(enabled, 0, nil); got != 2 {
		t.Errorf("solo pick = %d", got)
	}
	if got := (Solo{P: 5}).Pick(enabled, 1, nil); got != 1 {
		t.Errorf("solo fallback pick = %d", got)
	}
	names := []string{
		RoundRobin{}.Name(), Random{}.Name(), Solo{P: 1}.Name(), Burst{Phase: 4}.Name(),
		TrueChooser{}.Name(), StaleChooser{}.Name(), MixChooser{P: 0.5}.Name(),
	}
	for _, n := range names {
		if n == "" {
			t.Error("empty name")
		}
	}
}

func TestRatioSchedulerStarvesCASCounter(t *testing.T) {
	// The classic adversary: the victim's read-CAS window always spans an
	// opponent's completed operation, so the victim never finishes while
	// the opponent completes operations forever (non-blocking, not
	// wait-free).
	res, err := Run(Config{
		Impl:      counter.CAS{},
		Workload:  UniformWorkload(2, 100, fetchinc),
		Scheduler: Ratio{Victim: 0, Every: 4},
		MaxSteps:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsCompleted[0] != 0 {
		t.Fatalf("victim completed %d ops; starvation failed", res.OpsCompleted[0])
	}
	if res.OpsCompleted[1] == 0 {
		t.Fatal("opponent completed nothing; system not non-blocking under this schedule")
	}
}

func TestRatioSchedulerCannotStarveSloppy(t *testing.T) {
	res, err := Run(Config{
		Impl:      counter.Sloppy{},
		Workload:  UniformWorkload(2, 10, fetchinc),
		Scheduler: Ratio{Victim: 0, Every: 4},
		MaxSteps:  400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsCompleted[0] == 0 {
		t.Fatal("wait-free counter starved")
	}
}

func TestCrashScheduler(t *testing.T) {
	// p0 crashes mid-operation at step 1; p1 must still finish (the CAS
	// counter is non-blocking).
	res, err := Run(Config{
		Impl:      counter.CAS{},
		Workload:  UniformWorkload(2, 2, fetchinc),
		Scheduler: Crash{Victim: 0, After: 1},
		MaxSteps:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsCompleted[1] != 2 {
		t.Fatalf("survivor completed %d ops, want 2", res.OpsCompleted[1])
	}
	if res.OpsCompleted[0] != 0 {
		t.Fatalf("crashed process completed %d ops", res.OpsCompleted[0])
	}
	// The history with the crashed process's pending op must still be
	// linearizable (pending ops may be dropped or completed by the
	// checker).
	ok, err := check.Linearizable(implObjs(counter.CAS{}), res.History, check.Options{})
	if err != nil || !ok {
		t.Fatalf("crash history not linearizable: %v %v\n%s", ok, err, res.History)
	}
}

func TestSchedulerNames(t *testing.T) {
	if (Ratio{Victim: 1}).Name() == "" || (Crash{Victim: 0, After: 3}).Name() == "" {
		t.Error("schedulers must have names")
	}
}

func TestChoosers(t *testing.T) {
	cands := []int64{10, 20, 30}
	if (TrueChooser{}).Choose(cands, nil) != 10 {
		t.Error("true chooser must pick the first candidate")
	}
	one := []int64{42}
	if (StaleChooser{}).Choose(one, nil) != 42 {
		t.Error("stale chooser must fall back to the only candidate")
	}
	if (MixChooser{P: 0}).Choose(cands, nil) != 10 {
		t.Error("mix(0) must be truthful")
	}
}

func TestRunTimeout(t *testing.T) {
	res, err := Run(Config{
		Impl:     counter.CAS{},
		Workload: UniformWorkload(2, 50, fetchinc),
		MaxSteps: 10,
		Seed:     0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("expected timeout")
	}
	if res.Steps != 10 {
		t.Fatalf("steps = %d, want 10", res.Steps)
	}
}

func TestSystemErrors(t *testing.T) {
	if _, err := NewSystem(counter.CAS{}, nil, nil, check.Options{}, false); err == nil {
		t.Error("empty workload accepted")
	}
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(1, 1, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.NextAction(5); err == nil {
		t.Error("out-of-range process accepted")
	}
	if err := sys.Advance(0, 3); err == nil {
		t.Error("out-of-range branch accepted")
	}
}

func TestSystemCloneIndependence(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(2, 2, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	cl := sys.Clone()
	for !cl.Done() {
		en := cl.Enabled()
		if err := cl.Advance(en[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Done() {
		t.Fatal("advancing the clone finished the original")
	}
	if sys.History().Len() == cl.History().Len() {
		t.Fatal("clone history shared with original")
	}
	if sys.Steps() >= cl.Steps() {
		t.Fatal("clone steps shared with original")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys, err := NewSystem(counter.CAS{}, UniformWorkload(2, 2, fetchinc), nil, check.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Impl().Name() != "cas-counter" {
		t.Errorf("Impl().Name() = %q", sys.Impl().Name())
	}
	if sys.NumProcs() != 2 {
		t.Errorf("NumProcs = %d", sys.NumProcs())
	}
	states := sys.BaseStates()
	if states["C"] != spec.IntState(0) {
		t.Errorf("initial base state = %v", states["C"])
	}
	if len(sys.Bases()) != 1 || sys.Bases()[0].Name() != "C" {
		t.Errorf("Bases = %v", sys.Bases())
	}
	if sys.Proc(0) == nil {
		t.Error("Proc(0) nil")
	}
	if sys.OpsBegun(0) != 0 || sys.Running(0) {
		t.Error("fresh system should be idle")
	}
	// Begin p0's op: one advance (read).
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	if sys.OpsBegun(0) != 1 || !sys.Running(0) {
		t.Error("p0 should be mid-operation after one advance")
	}
	// Complete the op: cas + return.
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(0, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Running(0) {
		t.Error("p0 should be idle after return")
	}
	if sys.BaseStates()["C"] != spec.IntState(1) {
		t.Errorf("base state after one op = %v", sys.BaseStates()["C"])
	}
}

func TestUniformWorkload(t *testing.T) {
	w := UniformWorkload(3, 2, fetchinc)
	if len(w) != 3 || len(w[0]) != 2 || w[2][1] != fetchinc {
		t.Fatalf("workload = %v", w)
	}
}
