package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/elin-go/elin/internal/exp"
	"github.com/elin-go/elin/internal/scenario"
)

// runBench is the experiment-suite subcommand (the retired elbench): one
// experiment per paper artifact, each regenerating its EXPERIMENTS.md
// table.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	sel := fs.String("run", "", "comma-separated experiment ids (default: all)")
	jsonOut := fs.Bool("json", false, "emit machine-readable per-experiment timings instead of tables")
	workers := fs.Int("workers", 0, "exploration workers for the experiments: 0 = GOMAXPROCS, 1 = sequential")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := exp.All()
	if *list {
		for _, e := range all {
			fmt.Fprintln(out, e.ID)
		}
		return nil
	}

	var chosen []exp.Experiment
	if *sel == "" {
		chosen = all
	} else {
		for _, id := range strings.Split(*sel, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			chosen = append(chosen, e)
		}
	}

	// Timings use the shared scenario.Timing record: one encoder with the
	// campaign per-cell perf records, so the two cannot drift.
	cfg := exp.Config{Workers: *workers}
	var timings []scenario.Timing
	for _, e := range chosen {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *jsonOut {
			timings = append(timings, scenario.Timing{
				ID:         table.ID,
				Artifact:   table.Artifact,
				Rows:       len(table.Rows),
				NS:         time.Since(start).Nanoseconds(),
				Workers:    *workers,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			})
			continue
		}
		if err := table.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(timings)
	}
	return nil
}
