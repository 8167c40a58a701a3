package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"github.com/elin-go/elin/internal/scenario"
)

// runSim is the seeded-simulation subcommand (the retired elsim): one run
// under a named scheduler and base-object adversary, checked after the
// fact (linearizability, weak consistency, MinT and trend).
func runSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin sim", flag.ContinueOnError)
	sf := addScenarioFlags(fs, "cas-counter", 2, 3, "window:4", 0)
	fs.Lookup("seed").Usage = "random seed, read by the schedulers random and burst:N and the choosers stale and mix:P (an rr run with chooser true ignores it)"
	sched := fs.String("sched", "rr", "scheduler: rr | random | solo:P | burst:N")
	chooser := fs.String("chooser", "stale", "EL response chooser: true | stale | mix:P")
	maxSteps := fs.Int("max-steps", 0, "step bound (0 = default)")
	stride := fs.Int("stride", 0, "MinT-trend stride in events (0 = auto)")
	dump := fs.Bool("dump", false, "print the recorded history")
	noCheck := fs.Bool("nocheck", false, "run and record only, skip the decision procedures")
	emitJSON := fs.Bool("emit-json", false, "emit the history as a JSON event array (for elin check -json); implies -nocheck")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := sf.scenario()
	s.Scheduler = *sched
	s.Chooser = *chooser
	s.Budget.MaxSteps = *maxSteps
	s.Stride = *stride
	// History export must not pay for (or gate on) the checkers — the
	// downstream consumer checks.
	s.NoCheck = *noCheck || *emitJSON

	rep, err := scenario.Run("sim", s)
	if err != nil {
		return err
	}
	if *emitJSON {
		data, err := json.Marshal(rep.History())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	if err := sf.emit(out, rep); err != nil {
		return err
	}
	// -dump prints the recorded history unless the rendered witness already
	// showed it.
	if *dump && !*sf.jsonOut && (rep.Witness == nil || rep.Witness.History == "" || *sf.quiet) {
		fmt.Fprint(out, rep.History().String())
	}
	return nil
}
