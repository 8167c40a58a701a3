package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	stress := fs.Bool("stress", false, "append the live stress trajectory records (unified Reports) to the -json output")
	stressOps := fs.Int("stress-ops", 250000, "per-client operation budget of the -stress records (default: 1M total ops at 4 clients, the historical archive scale)")
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

	// Timings use the shared scenario.Timing record — the BENCH_*.json
	// trajectory format, one encoder with campaign per-cell perf records so
	// the two cannot drift.
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
		records := make([]any, 0, len(timings)+3)
		for _, t := range timings {
			records = append(records, t)
		}
		if *stress {
			reps, err := stressTrajectory(*stressOps)
			if err != nil {
				return err
			}
			records = append(records, reps...)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	return nil
}

// stressTrajectory runs the archived live stress configurations and
// returns their unified Reports — the BENCH_*.json stress records since
// the CLI merge. The scenario Name identifies each configuration across
// archives; throughput/latency live in the report's perf section.
func stressTrajectory(ops int) ([]any, error) {
	// The serve rows go over real loopback TCP, so a round trip — not the
	// object apply — dominates each op; a tenth of the in-process budget
	// keeps the archive regeneration time flat while the percentiles stay
	// stable.
	serveOps := ops / 10
	if serveOps < 1 {
		serveOps = ops
	}
	configs := []struct {
		engine string
		s      scenario.Scenario
	}{
		{"live", scenario.Scenario{Name: "STRESS-atomic-fi-c4", Impl: "atomic-fi", Procs: 4, Ops: ops, Seed: 1, Stride: 512, LatencySample: 8}},
		{"live", scenario.Scenario{Name: "STRESS-mutex-fi-c4", Impl: "mutex-fi", Procs: 4, Ops: ops, Seed: 1, Stride: 512, LatencySample: 8}},
		{"live", scenario.Scenario{Name: "STRESS-atomic-fi-c8-nomon", Impl: "atomic-fi", Procs: 8, Ops: ops, Seed: 1, Monitor: "none", LatencySample: 8}},
		// The WAL-on rows price durability against the no-WAL row above:
		// sync never = the framing + write() cost alone, interval:4096 = the
		// amortized-fsync production setting. (always would fsync per commit
		// — measurable with elin stress -wal-sync always, too slow to archive.)
		{"live", scenario.Scenario{Name: "STRESS-atomic-fi-c8-nomon-wal-never", Impl: "atomic-fi", Procs: 8, Ops: ops, Seed: 1, Monitor: "none", LatencySample: 8, WALSync: "never"}},
		{"live", scenario.Scenario{Name: "STRESS-atomic-fi-c8-nomon-wal-i4096", Impl: "atomic-fi", Procs: 8, Ops: ops, Seed: 1, Monitor: "none", LatencySample: 8, WALSync: "interval:4096"}},
		// The stabilizing-log rows price the promotion knob on the lock-free
		// fast path: batch 1 pays a full promotion per op (linearizable —
		// comparable head-on with atomic-fi), batch 64 answers speculatively
		// and promotes 1/64th as often. Monitored at batch 1; the batch-64
		// row is throughput-only (its speculative staleness is the point,
		// not a verdict).
		{"live", scenario.Scenario{Name: "SLOG-fi-b1-c4", Impl: "slog-fi:1", Procs: 4, Ops: ops, Seed: 1, Stride: 512, LatencySample: 8}},
		{"live", scenario.Scenario{Name: "SLOG-fi-b1-c8-nomon", Impl: "slog-fi:1", Procs: 8, Ops: ops, Seed: 1, Monitor: "none", LatencySample: 8}},
		{"live", scenario.Scenario{Name: "SLOG-fi-b64-c8-nomon", Impl: "slog-fi:64", Procs: 8, Ops: ops, Seed: 1, Monitor: "none", LatencySample: 8}},
		// The MON-* rows price online monitoring itself at one fixed workload
		// (the ISSUE-10 monitored-gap matrix): full sequential checking vs
		// the pipelined shard:4 monitor vs record-only. The gap between full
		// and none is what monitoring costs; shard:4 is how much of it the
		// worker pool buys back.
		{"live", scenario.Scenario{Name: "MON-atomic-fi-c4-full", Impl: "atomic-fi", Procs: 4, Ops: ops, Seed: 1, Stride: 512, LatencySample: 8, Monitor: "full"}},
		{"live", scenario.Scenario{Name: "MON-atomic-fi-c4-shard4", Impl: "atomic-fi", Procs: 4, Ops: ops, Seed: 1, Stride: 512, LatencySample: 8, Monitor: "shard:4"}},
		{"live", scenario.Scenario{Name: "MON-atomic-fi-c4-none", Impl: "atomic-fi", Procs: 4, Ops: ops, Seed: 1, LatencySample: 8, Monitor: "none"}},
		// The networked rows: client-observed latency percentiles under load
		// (p50/p95/p99 in the perf section), clean and under the flaky-net
		// fault plane — the retry/backoff cost shows up as the tail spread
		// between the two.
		{"serve", scenario.Scenario{Name: "SERVE-atomic-fi-c4", Impl: "atomic-fi", Procs: 4, Ops: serveOps, Seed: 1, Stride: 512, LatencySample: 8}},
		{"serve", scenario.Scenario{Name: "SERVE-atomic-fi-c4-flaky", Impl: "atomic-fi", Procs: 4, Ops: serveOps, Seed: 1, Stride: 512, LatencySample: 8, NetFaults: "flaky-net"}},
	}
	dir, err := os.MkdirTemp("", "elin-bench-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []any
	for _, cfg := range configs {
		s := cfg.s
		s.NoVerify = true // trajectory records time the hot path, not the replay
		if s.WALSync != "" {
			s.WAL = filepath.Join(dir, s.Name+".wal")
		}
		rep, err := scenario.Run(cfg.engine, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if rep.Trend != nil {
			// Archives track the summary (trend, final MinT, window count),
			// not a million-op run's per-window sample list.
			rep.Trend.Samples = rep.Trend.Samples[:0]
		}
		out = append(out, rep)
	}
	return out, nil
}
