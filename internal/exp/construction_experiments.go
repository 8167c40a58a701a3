package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/announce"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/localcopy"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/core/trivial"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

func implObjs(impl machine.Impl) map[string]spec.Object {
	return map[string]spec.Object{impl.Name(): impl.Spec()}
}

// E5Announce reproduces Figure 1 / Proposition 11: wrapping a
// weak-consistency-violating counter in the announce/verify algorithm
// restores weak consistency on every schedule, while an honest counter
// passes through unharmed.
func E5Announce(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E5",
		Artifact: "Proposition 11 / Figure 1",
		Title:    "Weak-consistency verdicts across 40 random schedules, before and after wrapping",
		Columns:  []string{"implementation", "runs", "weakly consistent", "linearizable"},
		Notes: []string{
			"junk-counter overshoots responses (out of left field); its wrapped form must be 40/40",
			"weakly consistent — the announce arrays let line 13 reject the junk",
		},
	}
	impls := []machine.Impl{
		counter.Junk{}, announce.New(counter.Junk{}, check.Options{}),
		counter.CAS{}, announce.New(counter.CAS{}, check.Options{}),
	}
	const runs = 40
	for _, impl := range impls {
		wcCount, linCount := 0, 0
		for seed := int64(0); seed < runs; seed++ {
			res, err := sim.Run(sim.Config{
				Impl:      impl,
				Workload:  sim.UniformWorkload(2, 3, spec.MakeOp(spec.MethodFetchInc)),
				Scheduler: sim.Random{},
				Seed:      seed,
			})
			if err != nil {
				return nil, fmt.Errorf("E5 %s seed %d: %w", impl.Name(), seed, err)
			}
			wc, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
			if err != nil {
				return nil, err
			}
			if wc {
				wcCount++
			}
			lin, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
			if err != nil {
				return nil, err
			}
			if lin {
				linCount++
			}
		}
		t.AddRow(impl.Name(), runs, fmt.Sprintf("%d/%d", wcCount, runs), fmt.Sprintf("%d/%d", linCount, runs))
	}
	return t, nil
}

// E6LocalCopy reproduces Theorem 12's construction: replacing eventually
// linearizable bases with local copies yields a communication-free,
// wait-free implementation whose histories stay weakly consistent; for the
// non-trivial register type, bounded exploration exhibits the
// linearizability violation that the theorem's contrapositive predicts.
func E6LocalCopy(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E6",
		Artifact: "Theorem 12 (local-copy construction)",
		Title:    "Exhaustive bounded exploration of local-copy implementations",
		Columns: []string{"inner type", "steps/op", "weakly consistent everywhere",
			"linearizable everywhere", "leaves"},
		Notes: []string{
			"register is non-trivial: the theorem says its local-copy version cannot be linearizable;",
			"the constant type is trivial (Definition 13) and survives the construction",
		},
	}
	cases := []struct {
		name     string
		obj      spec.Object
		workload [][]spec.Op
	}{
		{
			name: "register",
			obj:  spec.NewObject(spec.Register{}),
			workload: [][]spec.Op{
				{spec.MakeOp1(spec.MethodWrite, 1)},
				{spec.MakeOp(spec.MethodRead), spec.MakeOp(spec.MethodRead)},
			},
		},
		{
			name: "constant",
			obj:  spec.NewObject(spec.ConstantType(7)),
			workload: [][]spec.Op{
				{spec.MakeOp("get"), spec.MakeOp("get")},
				{spec.MakeOp("get")},
			},
		},
	}
	for _, tc := range cases {
		inner := passthrough.New(tc.name, tc.obj, true)
		lc, err := localcopy.New(inner, 0)
		if err != nil {
			return nil, err
		}
		root, err := sim.NewSystem(lc, tc.workload, nil, check.Options{}, false)
		if err != nil {
			return nil, err
		}
		// The leaf count comes from the weak-consistency sweep: it passes on
		// both rows, so it enumerates the whole tree and the count is
		// deterministic; the linearizability sweep aborts at its first
		// violation, leaving its counters at a schedule-dependent point.
		wcOK, _, wcSt, err := explore.WeaklyConsistentEverywhere(root, 10, cfg.explore(), check.Options{})
		if err != nil {
			return nil, err
		}
		linOK, _, _, err := explore.LinearizableEverywhere(root, 10, cfg.explore(), check.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, 1, wcOK, linOK, wcSt.Leaves)
	}
	return t, nil
}

// E7Trivial reproduces Proposition 14: the Definition 13 decision procedure
// agrees with bounded exploration of the local-copy construction — trivial
// types survive it linearizably, non-trivial types do not.
func E7Trivial(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E7",
		Artifact: "Definition 13 / Proposition 14",
		Title:    "Triviality decision vs exhaustive local-copy linearizability (2 processes)",
		Columns:  []string{"type", "trivial (Def. 13)", "local-copy linearizable", "verdicts agree"},
		Notes: []string{
			"Proposition 14: a deterministic type has a linearizable obstruction-free implementation",
			"from eventually linearizable objects iff it is trivial",
		},
	}
	cases := []struct {
		typ      spec.Type
		workload [][]spec.Op
	}{
		{spec.ConstantType(3), [][]spec.Op{{spec.MakeOp("get")}, {spec.MakeOp("get"), spec.MakeOp("get")}}},
		{spec.Register{}, [][]spec.Op{
			{spec.MakeOp1(spec.MethodWrite, 1)},
			{spec.MakeOp(spec.MethodRead), spec.MakeOp(spec.MethodRead)},
		}},
		{spec.TestSet{}, [][]spec.Op{
			{spec.MakeOp(spec.MethodTestSet)},
			{spec.MakeOp(spec.MethodTestSet)},
		}},
		{spec.Consensus{}, [][]spec.Op{
			{spec.MakeOp1(spec.MethodPropose, 0)},
			{spec.MakeOp1(spec.MethodPropose, 1)},
		}},
	}
	for _, tc := range cases {
		dec, err := trivial.Decide(tc.typ, 1000)
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", tc.typ.Name(), err)
		}
		inner := passthrough.New(tc.typ.Name(), spec.NewObject(tc.typ), true)
		lc, err := localcopy.New(inner, 0)
		if err != nil {
			return nil, err
		}
		root, err := sim.NewSystem(lc, tc.workload, nil, check.Options{}, false)
		if err != nil {
			return nil, err
		}
		linOK, _, _, err := explore.LinearizableEverywhere(root, 10, cfg.explore(), check.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.typ.Name(), dec.Trivial, linOK, dec.Trivial == linOK)
	}
	return t, nil
}

// E8Valency reproduces the Proposition 15 machinery: exhaustive valency
// analysis of two-process consensus protocols. A protocol over plain
// registers (Proposition 16's algorithm run on atomic registers) violates
// agreement; a protocol whose pivot is a strong object has critical
// configurations whose pending actions all touch that object — the proof's
// case analysis made visible.
func E8Valency(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E8",
		Artifact: "Proposition 15 (valency argument)",
		Title:    "Exhaustive valency analysis of two-process consensus protocols",
		Columns: []string{"protocol", "agreement violations", "critical configs",
			"pivot same object", "pivot kind"},
		Notes: []string{
			"registers cannot solve consensus: the register protocol must fail agreement;",
			"the strong-base protocol's every critical pivot is one (non-eventual) consensus object,",
			"matching the proof: register or eventually linearizable pivots always commute/swap",
		},
	}
	workload := [][]spec.Op{
		{spec.MakeOp1(spec.MethodPropose, 10)},
		{spec.MakeOp1(spec.MethodPropose, 20)},
	}
	cases := []struct {
		name string
		impl machine.Impl
		pol  base.PolicyFor
	}{
		{"P16 on atomic registers", elconsensus.Impl{AtomicBases: true}, nil},
		{"P16 on EL registers (never stabilize)", elconsensus.Impl{}, base.SamePolicy(base.Never{})},
		{"passthrough on consensus base", passthrough.New("cons", spec.NewObject(spec.Consensus{}), false), nil},
	}
	for _, tc := range cases {
		root, err := sim.NewSystem(tc.impl, workload, tc.pol, check.Options{}, false)
		if err != nil {
			return nil, err
		}
		rep, err := explore.Analyze(root, 18, cfg.explore())
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", tc.name, err)
		}
		same := "n/a"
		kind := "n/a"
		if len(rep.Criticals) > 0 {
			allSame := true
			kinds := map[string]bool{}
			for _, c := range rep.Criticals {
				if !c.SameObject {
					allSame = false
				}
				for _, pa := range c.Pending {
					label := pa.BaseType
					if pa.Eventually {
						label += "(EL)"
					}
					if pa.IsReturn {
						label = "return"
					}
					kinds[label] = true
				}
			}
			same = fmt.Sprintf("%v", allSame)
			kind = ""
			for k := range kinds {
				if kind != "" {
					kind += ","
				}
				kind += k
			}
		}
		t.AddRow(tc.name, rep.AgreementViolations, len(rep.Criticals), same, kind)
	}
	return t, nil
}
