package live

import (
	"fmt"

	"github.com/elin-go/elin/internal/check"
)

// FuzzConfig drives a seeded fuzz campaign: repeated live runs with
// consecutive seeds, each fully monitored, with automatic shrink-to-sim on
// the first violation.
type FuzzConfig struct {
	// Base is the run configuration; Base.Seed is the campaign's first
	// seed. Each run gets a pristine instance from Base.Object.Fresh.
	Base Config
	// Runs is the number of seeds to try (default 8).
	Runs int
	// NoShrink reports the first violation as-is instead of ddmin-shrinking
	// it (Witness stays nil).
	NoShrink bool
	// CheckOpts configures the shrinker's confirmation replays.
	CheckOpts check.Options
}

// FuzzResult is a fuzz campaign's outcome.
type FuzzResult struct {
	// Runs is the number of runs executed.
	Runs int
	// TotalOps sums completed operations over all runs.
	TotalOps int
	// Seed is the violating run's seed (meaningful when Violation is set).
	Seed int64
	// Run is the violating run's result, Violation its offending window,
	// Witness the shrunk, sim-confirmed counterexample. All nil/zero when
	// the campaign found nothing.
	Run       *Result
	Violation *check.WindowViolation
	Witness   *Witness
}

// Found reports whether the campaign produced a counterexample.
func (r *FuzzResult) Found() bool { return r.Violation != nil }

// Fuzz runs the campaign: every run is reproducible from its seed plus its
// recorded commit order, so a reported witness can be re-shrunk or
// re-replayed offline from the returned Run.History alone.
func Fuzz(cfg FuzzConfig) (*FuzzResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 8
	}
	if cfg.Base.Object == nil {
		return nil, fmt.Errorf("live: FuzzConfig.Base.Object is nil")
	}
	out := &FuzzResult{}
	for i := 0; i < cfg.Runs; i++ {
		run := cfg.Base
		run.Seed = cfg.Base.Seed + int64(i)
		obj, err := cfg.Base.Object.Fresh()
		if err != nil {
			return nil, fmt.Errorf("live: fuzz run %d (seed %d): %w", i, run.Seed, err)
		}
		run.Object = obj
		res, err := Run(run)
		if err != nil {
			return nil, fmt.Errorf("live: fuzz run %d (seed %d): %w", i, run.Seed, err)
		}
		out.Runs++
		out.TotalOps += res.Ops
		if res.Violation == nil {
			continue
		}
		out.Seed = run.Seed
		out.Run = res
		out.Violation = res.Violation
		if cfg.NoShrink {
			return out, nil
		}
		w, err := Shrink(res.Violation, cfg.CheckOpts)
		if err != nil {
			return nil, fmt.Errorf("live: shrink (seed %d): %w", run.Seed, err)
		}
		out.Witness = w
		return out, nil
	}
	return out, nil
}
