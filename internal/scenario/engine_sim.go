package scenario

import (
	"fmt"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Sim is the deterministic simulation engine: one seeded run under the
// named scheduler and base-object adversary, with the recorded history
// checked after the fact (linearizability, weak consistency, MinT and the
// MinT trend over growing prefixes).
type Sim struct{}

// Name implements Engine.
func (Sim) Name() string { return "sim" }

// Run implements Engine.
func (Sim) Run(s Scenario) (*Report, error) {
	s = s.withDefaults()
	if err := s.rejectLiveOnly("sim"); err != nil {
		return nil, err
	}
	impl, err := registry.Impl(s.Impl)
	if err != nil {
		return nil, err
	}
	workload, err := registry.WorkloadByName(s.Workload, impl, s.Procs, s.Ops)
	if err != nil {
		return nil, err
	}
	sched, err := registry.Scheduler(s.Scheduler)
	if err != nil {
		return nil, err
	}
	chooser, err := registry.Chooser(s.Chooser)
	if err != nil {
		return nil, err
	}
	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Impl:      impl,
		Workload:  workload,
		Scheduler: sched,
		Chooser:   chooser,
		Policies:  base.SamePolicy(policy),
		Seed:      s.Seed,
		MaxSteps:  s.Budget.MaxSteps,
		CheckOpts: s.Check,
	})
	if err != nil {
		return nil, err
	}

	h := res.History
	rep := &Report{Schema: Schema, Engine: "sim", Scenario: s.info("sim"), history: h}
	rep.Perf = &PerfInfo{Steps: res.Steps, TimedOut: res.TimedOut, Events: h.Len()}
	for _, n := range res.OpsCompleted {
		rep.Perf.Ops += n
	}
	if s.NoCheck {
		rep.Verdict = VerdictOK
		rep.Detail = "run recorded (checks skipped)"
		return rep, nil
	}

	objs := map[string]spec.Object{impl.Name(): impl.Spec()}
	wc, err := check.WeaklyConsistent(objs, h, s.Check)
	if err != nil {
		return nil, err
	}
	// One pass answers Definition 2 for every prefix: its last sample is the
	// whole history's MinT, and linearizability is 0-linearizability.
	stride := s.Stride
	if stride <= 0 {
		stride = max(h.Len()/8, 2)
	}
	v, err := check.TrackMinT(impl.Spec(), h, stride, s.Check)
	if err != nil {
		return nil, fmt.Errorf("object %q: %w", impl.Name(), err)
	}
	minT := v.FinalMinT
	rep.Checks = &Checks{Linearizable: boolPtr(minT == 0), WeaklyConsistent: boolPtr(wc), MinT: intPtr(minT)}
	if h.Len() > 0 {
		rep.Trend = trendInfo(v)
	}

	switch {
	case s.Tolerance < 0:
		rep.Verdict = VerdictOK
		rep.Detail = "observe-only (negative tolerance)"
	case minT <= s.Tolerance:
		rep.Verdict = VerdictOK
		if minT == 0 {
			rep.Detail = "history is linearizable"
		} else {
			rep.Detail = fmt.Sprintf("MinT %d within tolerance %d", minT, s.Tolerance)
		}
	default:
		rep.Verdict = VerdictViolation
		rep.Detail = fmt.Sprintf("MinT %d exceeds tolerance %d", minT, s.Tolerance)
		rep.Witness = &WitnessInfo{History: h.String(), MinT: minT}
	}
	return rep, nil
}
