package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/wal"
)

// runRecover is the crash-recovery subcommand: recover a commit log
// written by 'elin stress -wal' (truncating any torn tail), replay it
// against a fresh object, continue the run with fresh clients, and verify
// the stitched history still t-stabilizes. Continuation parameters default
// from the log header; the continuation seed defaults to the header seed
// plus one so fresh clients draw fresh op streams. -strict inverts the
// torn-tail posture: instead of truncating and continuing, a torn log is a
// non-zero exit naming the first bad byte — the mode for pipelines that
// must not silently drop committed suffixes.
func runRecover(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin recover", flag.ContinueOnError)
	walPath := fs.String("wal", "", "commit log to recover (required)")
	strict := fs.Bool("strict", false, "refuse a torn log: exit non-zero naming the first bad byte instead of truncating")
	corrupt := fs.String("corrupt", "", "corrupt the log in place before recovery: flip[:OFF] | trunc:N (destructive)")
	procs := fs.Int("procs", 0, "continuation client goroutines (0 = the log header's procs)")
	ops := fs.Int("ops", 0, "operations per continuation client (0 = the header's ops)")
	workload := fs.String("workload", "", "continuation operation mix (default: the header's workload)")
	policy := fs.String("policy", "", "EL stabilization policy (default: the header's policy)")
	seed := fs.Int64("seed", 0, "continuation seed (0 = the header's seed + 1)")
	tolerance := fs.Int("tolerance", 0, "t-lin tolerance of the stitched verdict (0 = the header's tolerance)")
	faults := fs.String("faults", "", "fault injection for the continuation (preset or grammar)")
	pf := addPipelineFlags(fs, "out-wal") // the new log: recovered prefix + continuation
	serial := fs.Bool("serial", false, "deterministic serial driver for the continuation")
	jsonOut := fs.Bool("json", false, "emit the unified Report as JSON (schema elin/report/v1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walPath == "" {
		return fmt.Errorf("recover: -wal FILE is required")
	}
	var corrupted string // what -corrupt did, printed once the log recovers
	if *corrupt != "" {
		sp, err := registry.Faults(*corrupt)
		if err != nil {
			return err
		}
		if sp == nil || sp.Corrupt == nil {
			return fmt.Errorf("recover: -corrupt wants flip[:OFF] or trunc:N, got %q", *corrupt)
		}
		if err := sp.CorruptFile(*walPath, *seed); err != nil {
			return err
		}
		corrupted = sp.Corrupt.String()
	}
	rec, err := wal.Recover(*walPath)
	if err != nil {
		return err
	}
	if corrupted != "" {
		hdr := rec.Header
		fmt.Fprintf(out, "corrupted %s (%s) — log of %s, %d procs x %d ops, seed %d\n",
			*walPath, corrupted, hdr.Object, hdr.Procs, hdr.Ops, hdr.Seed)
	}
	if *strict && rec.Torn {
		return fmt.Errorf("recover: log %s is torn at byte %d (%d intact frames); rerun without -strict to truncate and continue",
			*walPath, rec.TornAt, rec.Frames)
	}
	s := scenario.Scenario{
		Workload:  *workload,
		Policy:    *policy,
		Procs:     *procs,
		Ops:       *ops,
		Seed:      *seed,
		Tolerance: *tolerance,
		Faults:    *faults,
		Serial:    *serial,
	}
	pf.apply(&s)
	rep, err := scenario.Continue(rec, s)
	if err != nil {
		return err
	}
	if *jsonOut {
		return rep.EncodeJSON(out)
	}
	return rep.Render(out)
}
