package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/elin-go/elin/internal/campaign"
)

// runSweep is the campaign subcommand: expand a declarative sweep spec
// into a scenario grid, execute it on one shared worker pool, and emit
// the schema-tagged campaign report — optionally diffed and gated
// against a baseline report. This is the CI regression gate: the exit
// status is non-zero on any verdict flip against the baseline and on any
// error cell.
func runSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin sweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec file (schema elin/sweep/v1; see .github/sweeps/)")
	baselinePath := fs.String("baseline", "", "baseline campaign report to diff and gate against")
	jsonOut := fs.Bool("json", false, "emit the campaign report as JSON (schema elin/campaign/v1)")
	canonical := fs.Bool("canonical", false, "emit the canonical (wall-clock-free) report JSON — the form baselines are committed in; implies -json")
	monitor := fs.String("monitor", "", "override the spec's monitor axis with a single spec (full | sample:N | none)")
	workers := fs.Int("workers", 0, "concurrent cells on the shared pool (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress the streamed per-cell progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("sweep: -spec is required (committed grids live under .github/sweeps/)")
	}
	sp, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	if *monitor != "" {
		// Collapse the monitor axis: rerun the whole grid under one monitor
		// (e.g. -monitor sample:4 to compare against a full-checking baseline).
		sp.Axes.Monitor = []string{*monitor}
		if err := sp.Validate(); err != nil {
			return err
		}
	}

	opts := campaign.RunOptions{Workers: *workers}
	if !*jsonOut && !*canonical && !*quiet {
		// Stream cells as they finish; completion order is nondeterministic,
		// so these lines are progress, not a stable format — the summary and
		// the JSON report are.
		opts.OnCell = func(done, total int, c campaign.Cell) {
			var ms int64
			if c.Timing != nil {
				ms = time.Duration(c.Timing.NS).Milliseconds()
			}
			fmt.Fprintf(out, "[%d/%d] %-9s %s (%dms)\n", done, total, c.Verdict, c.ID, ms)
		}
	}
	camp, err := campaign.Run(sp, opts)
	if err != nil {
		return err
	}

	var gateErr error
	if *baselinePath != "" {
		base, err := campaign.Load(*baselinePath)
		if err != nil {
			return err
		}
		camp.Diff = campaign.Compare(base, camp)
		gateErr = camp.Diff.Gate()
	}

	switch {
	case *canonical:
		if err := camp.Canonical().EncodeJSON(out); err != nil {
			return err
		}
	case *jsonOut:
		if err := camp.EncodeJSON(out); err != nil {
			return err
		}
	default:
		if err := camp.RenderSummary(out); err != nil {
			return err
		}
		if camp.Diff != nil {
			if err := camp.Diff.Render(out); err != nil {
				return err
			}
		}
	}

	if gateErr != nil {
		return gateErr
	}
	if camp.Totals.Error > 0 {
		return fmt.Errorf("sweep: %d cell(s) errored (their error fields name the broken coordinates)", camp.Totals.Error)
	}
	if camp.Diff == nil {
		return nil
	}
	if !*jsonOut && !*canonical {
		fmt.Fprintf(out, "gate: ok (no verdict flips)\n")
	}
	return nil
}
