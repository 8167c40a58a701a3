package exp

import (
	"fmt"
	"time"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/eltestset"
	"github.com/elin-go/elin/internal/core/stabilize"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

var fetchinc = spec.MakeOp(spec.MethodFetchInc)

// E9ELConsensus reproduces Proposition 16: the Proposals-array consensus
// over eventually linearizable registers is wait-free and eventually
// linearizable; MinT tracks the adversary's stabilization window.
func E9ELConsensus(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E9",
		Artifact: "Proposition 16",
		Title:    "EL consensus from EL registers: stabilization vs adversary window (20 seeds each)",
		Columns: []string{"procs", "window", "wait-free", "weakly consistent",
			"mean MinT (events)", "max MinT"},
		Notes: []string{
			"window = per-register actions before the base adversary stabilizes (stale answers allowed);",
			"every run must be weakly consistent and t-linearizable for finite t (eventual linearizability);",
			"larger windows push MinT up — stabilization is schedule-dependent, never absent",
		},
	}
	const seeds = 20
	for _, n := range []int{2, 4} {
		for _, window := range []int{0, 2, 6} {
			wcAll, wfAll := true, true
			sumT, maxT := 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				w := make([][]spec.Op, n)
				for p := 0; p < n; p++ {
					for k := 0; k < 2; k++ {
						w[p] = append(w[p], spec.MakeOp1(spec.MethodPropose, int64(10*(p+1))))
					}
				}
				impl := elconsensus.Impl{}
				res, err := sim.Run(sim.Config{
					Impl:      impl,
					Workload:  w,
					Scheduler: sim.Random{},
					Chooser:   sim.StaleChooser{},
					Policies:  base.SamePolicy(base.Window{K: window}),
					Seed:      seed,
				})
				if err != nil {
					return nil, fmt.Errorf("E9 n=%d w=%d seed=%d: %w", n, window, seed, err)
				}
				if res.TimedOut {
					wfAll = false
				}
				wc, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
				if err != nil {
					return nil, err
				}
				wcAll = wcAll && wc
				mt, ok, err := check.MinT(impl.Spec(), res.History, check.Options{})
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("E9: run not t-linearizable for any t")
				}
				sumT += mt
				if mt > maxT {
					maxT = mt
				}
			}
			t.AddRow(n, window, wfAll, wcAll,
				fmt.Sprintf("%.1f", float64(sumT)/float64(seeds)), maxT)
		}
	}
	return t, nil
}

// E10TestSet reproduces the Section 4/5 test&set discussion: the
// communication-free implementation is eventually linearizable (bounded
// MinT: all zeros sit in a finite prefix), while the CAS-based one is
// linearizable outright.
func E10TestSet(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E10",
		Artifact: "Section 4/5 (test&set)",
		Title:    "Test&set: communication-free EL vs linearizable-from-CAS (20 seeds, 3 procs x 3 ops)",
		Columns:  []string{"implementation", "bases", "linearizable", "weakly consistent", "max MinT"},
		Notes: []string{
			"test&set is 'interesting' only in a finite prefix, so eventual linearizability is free;",
			"MinT is bounded by the prefix containing each process's first operation",
		},
	}
	const seeds = 20
	for _, impl := range []struct {
		im    machine.Impl
		bases string
	}{
		{eltestset.Local{}, "none"},
		{eltestset.FromCAS{}, "1 CAS"},
	} {
		linAll, wcAll := true, true
		maxT := 0
		for seed := int64(0); seed < seeds; seed++ {
			res, err := sim.Run(sim.Config{
				Impl:      impl.im,
				Workload:  sim.UniformWorkload(3, 3, spec.MakeOp(spec.MethodTestSet)),
				Scheduler: sim.Random{},
				Seed:      seed,
			})
			if err != nil {
				return nil, err
			}
			wc, err := check.WeaklyConsistent(implObjs(impl.im), res.History, check.Options{})
			if err != nil {
				return nil, err
			}
			wcAll = wcAll && wc
			mt, ok, err := check.MinT(impl.im.Spec(), res.History, check.Options{})
			if err != nil || !ok {
				return nil, fmt.Errorf("E10 MinT: %v %v", ok, err)
			}
			linAll = linAll && mt == 0
			maxT = max(maxT, mt)
		}
		t.AddRow(impl.im.Name(), impl.bases, linAll, wcAll, maxT)
	}
	return t, nil
}

// E11Stabilize reproduces Proposition 18 end to end: the eventually
// linearizable warmup counter is transformed via the stable-configuration
// construction into A′, which exhaustive exploration then certifies as
// fully linearizable; the sloppy counter (not eventually linearizable)
// makes the stable search fail, as Claim 1 predicts it must not for EL
// implementations.
func E11Stabilize(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E11",
		Artifact: "Proposition 18 (the paradox)",
		Title:    "Stable-configuration construction: EL fetch&inc => linearizable fetch&inc",
		Columns: []string{"input", "stable found", "stable depth", "t=|aC|", "v0",
			"A' linearizable (exhaustive)"},
		Notes: []string{
			"warmup-counter: EL but not linearizable; its A' must pass the exhaustive check;",
			"sloppy-counter: not EL (Corollary 19), so no stable configuration exists to find",
		},
	}
	// Warmup counter: the headline result.
	out, rep, err := stabilize.Transform(counter.Warmup{Threshold: 2}, stabilize.Config{
		NumProcs:    2,
		OpsPerProc:  4,
		SearchDepth: 8,
		VerifyDepth: 16,
		Workers:     cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("E11 warmup: %w", err)
	}
	root, err := sim.NewSystem(out, sim.UniformWorkload(2, 2, fetchinc), nil, check.Options{}, false)
	if err != nil {
		return nil, err
	}
	linOK, _, _, err := explore.LinearizableEverywhere(root, 24, cfg.explore(), check.Options{})
	if err != nil {
		return nil, err
	}
	t.AddRow("warmup-counter (EL)", true, rep.StableDepth, rep.StableT, rep.V0, linOK)

	// Sloppy counter: stable search must fail.
	_, _, err = stabilize.Transform(counter.Sloppy{}, stabilize.Config{
		NumProcs:    2,
		OpsPerProc:  3,
		SearchDepth: 5,
		VerifyDepth: 12,
		Workers:     cfg.Workers,
	})
	t.AddRow("sloppy-counter (not EL)", err == nil, "-", "-", "-", "-")
	return t, nil
}

// E12Divergence reproduces Corollary 19 empirically: the register-only
// sloppy counter's MinT diverges linearly with run length under
// contention, while the CAS counter sits at MinT = 0. No register-only
// fetch&increment can be eventually linearizable.
func E12Divergence(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E12",
		Artifact: "Corollary 19",
		Title:    "MinT growth with run length: register-only counter vs CAS counter",
		Columns:  []string{"groups", "events", "sloppy MinT", "sloppy trend", "cas MinT"},
		Notes: []string{
			"sloppy trace: n concurrent increments per group all return the group index;",
			"its MinT must keep growing (divergence = the finite shadow of impossibility);",
			"the CAS counter is linearizable, so its MinT is identically 0",
		},
	}
	obj := spec.NewObject(spec.FetchInc{})
	for _, groups := range []int{4, 8, 16, 32} {
		h, err := gen.SloppyTrace(2, groups)
		if err != nil {
			return nil, err
		}
		v, err := check.TrackMinT(obj, h, h.Len()/8, check.Options{})
		if err != nil {
			return nil, err
		}
		// CAS counter run of the same op count.
		res, err := sim.Run(sim.Config{
			Impl:      counter.CAS{},
			Workload:  sim.UniformWorkload(2, groups, fetchinc),
			Scheduler: sim.Random{},
			Seed:      int64(groups),
		})
		if err != nil {
			return nil, err
		}
		casT, ok, err := check.MinT(obj, res.History, check.Options{})
		if err != nil || !ok {
			return nil, fmt.Errorf("E12 cas MinT: %v %v", ok, err)
		}
		t.AddRow(groups, h.Len(), v.FinalMinT, v.Trend.String(), casT)
	}
	return t, nil
}

// E13Throughput reproduces the introduction's motivation: under
// contention, the register-only sloppy counter completes operations in a
// bounded number of steps while the CAS counter retries; the price is
// consistency (E12), which is the trade-off the paper formalizes.
func E13Throughput(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E13",
		Artifact: "Introduction (motivating trade-off)",
		Title:    "Steps per completed operation under contention (10 seeds each)",
		Columns:  []string{"procs", "cas steps/op", "sloppy steps/op", "sloppy bounded"},
		Notes: []string{
			"cas-counter retries on contention (unbounded worst case, non-blocking only);",
			"sloppy-counter always finishes in n+1 steps — the 'do the increment locally' regime;",
			"the paper's point: that regime can be weakly consistent but never eventually linearizable",
		},
	}
	const seeds = 10
	for _, n := range []int{2, 4, 8} {
		var casSteps, sloppySteps float64
		var casOps, sloppyOps float64
		for seed := int64(0); seed < seeds; seed++ {
			resCAS, err := sim.Run(sim.Config{
				Impl:      counter.CAS{},
				Workload:  sim.UniformWorkload(n, 4, fetchinc),
				Scheduler: sim.Random{},
				Seed:      seed,
			})
			if err != nil {
				return nil, err
			}
			casSteps += float64(resCAS.Steps)
			casOps += float64(n * 4)
			resSloppy, err := sim.Run(sim.Config{
				Impl:      counter.Sloppy{},
				Workload:  sim.UniformWorkload(n, 4, fetchinc),
				Scheduler: sim.Random{},
				Seed:      seed,
			})
			if err != nil {
				return nil, err
			}
			sloppySteps += float64(resSloppy.Steps)
			sloppyOps += float64(n * 4)
		}
		t.AddRow(n,
			fmt.Sprintf("%.2f", casSteps/casOps),
			fmt.Sprintf("%.2f", sloppySteps/sloppyOps),
			fmt.Sprintf("%d", n+1))
	}
	return t, nil
}

// E14Checker measures the decision procedures themselves: the polynomial
// Lemma 17 fetch&inc checker against the generic exponential engine, and
// MinT via binary search.
func E14Checker(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E14",
		Artifact: "checker engineering (Lemma 17 as an algorithm)",
		Title:    "Checker latency on atomic fetch&inc histories",
		Columns:  []string{"ops", "events", "fast path", "generic engine", "MinT (fast)"},
		Notes: []string{
			"the Lemma 17 slot argument gives a polynomial checker; the generic engine is",
			"exponential with memoization and capped at 63 ops (— marks sizes beyond the cap)",
		},
	}
	obj := spec.NewObject(spec.FetchInc{})
	for _, nops := range []int{8, 16, 32, 64, 128} {
		h := historyOfAtomicCounter(nops)
		start := time.Now()
		if _, err := check.TLinearizable(obj, h, 0, check.Options{}); err != nil {
			return nil, err
		}
		fast := time.Since(start)

		generic := "—"
		if nops <= 32 {
			start = time.Now()
			if _, err := check.TLinearizable(obj, h, 0, check.Options{NoFastPath: true}); err != nil {
				return nil, err
			}
			generic = time.Since(start).String()
		}

		start = time.Now()
		if _, _, err := check.MinT(obj, h, check.Options{}); err != nil {
			return nil, err
		}
		minT := time.Since(start)
		t.AddRow(nops, h.Len(), fast.String(), generic, minT.String())
	}
	return t, nil
}

func historyOfAtomicCounter(nops int) *history.History {
	h := history.New()
	for i := 0; i < nops; i++ {
		if err := h.Call(i%2, "X", fetchinc, int64(i)); err != nil {
			panic(fmt.Sprintf("exp: counter history: %v", err))
		}
	}
	return h
}
