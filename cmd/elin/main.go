// Command elin is the toolkit's multitool: one scenario vocabulary, ten
// subcommands, four execution engines, one report schema.
//
//	elin explore  exhaustive bounded exploration (lin | weak | valency | stable)
//	elin sim      one seeded simulation run, checked after the fact
//	elin check    check a recorded history against the paper's conditions
//	elin stress   live goroutine stress run or fuzz campaign
//	elin serve    long-lived networked object server (framed TCP, fault plane)
//	elin load     retrying client fleet against a server (-self = serve engine)
//	elin recover  recover a crashed run's commit log and continue it
//	elin sweep    declarative scenario grid with baseline diffing (the CI gate)
//	elin compare  head-to-head of two impl families over matched grid cells
//	elin bench    regenerate the experiment tables / machine-readable timings
//	elin list     registry contents (implementations, engines, workloads, ...)
//
// Every execution subcommand is a thin shell over internal/scenario: flags
// build one Scenario value, the named engine runs it, and -json emits the
// unified Report (schema elin/report/v1) on every engine alike.
//
// Usage examples:
//
//	elin explore -impl cas-counter -procs 2 -ops 2 -mode lin -depth 22
//	elin explore -impl reg-consensus -procs 2 -ops 1 -mode valency -depth 18
//	elin sim -impl warmup-counter:4 -procs 2 -ops 8 -chooser stale -dump
//	elin sim -impl cas-counter -emit-json | elin check -json -obj cas-counter=fetchinc -mode lin
//	elin stress -impl atomic-fi -procs 8 -ops 100000
//	elin stress -impl junk-fi:40 -procs 2 -ops 2000 -fuzz 4
//	elin stress -impl el-fi -serial -wal run.wal -crash-at 6000 -ops 5000
//	elin serve -impl atomic-fi -addr 127.0.0.1:7400 -net-faults flaky-net -wal run.wal
//	elin load -addr 127.0.0.1:7400 -procs 4 -ops 20000
//	elin load -self -impl atomic-fi -procs 4 -ops 20000 -net-faults partition:120+40
//	elin recover -wal run.wal -ops 2000
//	elin recover -wal run.wal -corrupt trunc:7
//	elin sweep -spec .github/sweeps/smoke.json -baseline .github/sweeps/smoke.baseline.json
//	elin compare -grid .github/sweeps/e19.json -impls-a slog-register -impls-b localcopy-register
//	elin bench -run E8,E11 -json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/elin-go/elin/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "elin:", err)
		os.Exit(1)
	}
}

// run dispatches a subcommand; out receives all normal output (tests drive
// this directly).
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "explore":
		return runExplore(rest, out)
	case "sim":
		return runSim(rest, out)
	case "check":
		return runCheck(rest, out)
	case "stress":
		return runStress(rest, out)
	case "serve":
		return runServe(rest, out)
	case "load":
		return runLoad(rest, out)
	case "recover":
		return runRecover(rest, out)
	case "sweep":
		return runSweep(rest, out)
	case "compare":
		return runCompare(rest, out)
	case "bench":
		return runBench(rest, out)
	case "list":
		return runList(rest, out)
	case "help", "-h", "-help", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage(out io.Writer) {
	fmt.Fprint(out, `usage: elin <command> [flags]

commands:
  explore   exhaustive bounded exploration (lin | weak | valency | stable)
  sim       one seeded simulation run, checked after the fact
  check     check a recorded history file (or stdin)
  stress    live goroutine stress run or fuzz campaign
  serve     long-lived networked object server with the fault plane and monitor
  load      retrying client fleet against a server (-self runs the serve engine)
  recover   recover a commit log, continue the run, verify the stitched history
  sweep     declarative scenario grid: expand, execute, diff against a baseline
  compare   head-to-head of two impl families over matched grid cells
  bench     experiment tables / machine-readable timings
  list      registry contents
  help      this text

run 'elin <command> -h' for the command's flags.
`)
}

// scenarioFlags are the shared scenario vocabulary every execution
// subcommand speaks.
type scenarioFlags struct {
	impl      *string
	workload  *string
	policy    *string
	procs     *int
	ops       *int
	seed      *int64
	tolerance *int
	jsonOut   *bool
	quiet     *bool
}

// addScenarioFlags registers the shared flags with per-command defaults.
// defSeed stays 1 for stress (the live runtime's historical default, so
// archived runs remain reproducible by default invocation) and 0
// elsewhere.
func addScenarioFlags(fs *flag.FlagSet, defImpl string, defProcs, defOps int, defPolicy string, defSeed int64) *scenarioFlags {
	return &scenarioFlags{
		impl:      fs.String("impl", defImpl, "object/implementation under test (see 'elin list')"),
		workload:  fs.String("workload", "default", "operation mix: default | uniform:OP | rw:P | zipf:S"),
		policy:    fs.String("policy", defPolicy, "EL stabilization policy: immediate | never | window:K"),
		procs:     fs.Int("procs", defProcs, "number of processes / client goroutines"),
		ops:       fs.Int("ops", defOps, "operations per process"),
		seed:      fs.Int64("seed", defSeed, "random seed (schedules, choices, client streams)"),
		tolerance: fs.Int("tolerance", 0, "t-linearizability tolerance of the verdict (-1 = observe only)"),
		jsonOut:   fs.Bool("json", false, "emit the unified Report as JSON (schema elin/report/v1)"),
		quiet:     fs.Bool("quiet", false, "suppress witness history dumps"),
	}
}

// scenario builds the Scenario base value.
func (f *scenarioFlags) scenario() scenario.Scenario {
	return scenario.Scenario{
		Impl:      *f.impl,
		Workload:  *f.workload,
		Policy:    *f.policy,
		Procs:     *f.procs,
		Ops:       *f.ops,
		Seed:      *f.seed,
		Tolerance: *f.tolerance,
	}
}

// pipelineFlags are the monitor and commit-log knobs of the subcommands
// that run the live commit pipeline (stress, serve, load -self, recover).
type pipelineFlags struct {
	monitor *string
	stride  *int
	wal     *string
	walSync *string
}

// addPipelineFlags registers them. walFlag names the flag taking the log
// path to write: "wal" everywhere but recover, whose -wal is the log it
// reads.
func addPipelineFlags(fs *flag.FlagSet, walFlag string) *pipelineFlags {
	return &pipelineFlags{
		monitor: fs.String("monitor", "", "monitor spec: full | sample:N | shard:K | none (see 'elin list -section monitors')"),
		stride:  fs.Int("stride", 0, "monitor window stride in events (0 = auto)"),
		wal:     fs.String(walFlag, "", "write a durable, self-contained commit log to this path (recover it with 'elin recover')"),
		walSync: fs.String("wal-sync", "", "durability of -"+walFlag+": always | never | interval:N (default never)"),
	}
}

// apply sets the knobs on the scenario.
func (f *pipelineFlags) apply(s *scenario.Scenario) {
	s.Monitor, s.Stride, s.WAL, s.WALSync = *f.monitor, *f.stride, *f.wal, *f.walSync
}

// emit writes the report: JSON when requested, the human rendering
// otherwise (with witness histories stripped under -quiet).
func (f *scenarioFlags) emit(out io.Writer, rep *scenario.Report) error {
	if *f.jsonOut {
		return rep.EncodeJSON(out)
	}
	if *f.quiet && rep.Witness != nil {
		cp := *rep
		w := *rep.Witness
		w.History = ""
		cp.Witness = &w
		rep = &cp
	}
	return rep.Render(out)
}
