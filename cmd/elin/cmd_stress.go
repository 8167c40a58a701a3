package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
)

// runStress is the live-runtime subcommand (the retired elstress): real
// goroutine clients against a genuinely shared object, online windowed
// monitoring, seeded fuzzing and shrink-to-simulator replay — plus the
// fault plane (-faults/-crash-at/-serial) and the durable commit log
// (-wal/-wal-sync) a crashed run recovers from with 'elin recover'.
func runStress(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin stress", flag.ContinueOnError)
	sf := addScenarioFlags(fs, "atomic-fi", 4, 10000, "window:400", 1)
	rate := fs.Float64("rate", 0, "open-loop rate per client in ops/sec (0 = closed loop)")
	pf := addPipelineFlags(fs, "wal")
	latSample := fs.Int("latsample", 0, "record one latency sample every N ops per client (0 = the largest power of two leaving each client >= 1024 samples)")
	fuzz := fs.Int("fuzz", 0, "run a fuzz campaign over N consecutive seeds instead of one run")
	noShrink := fs.Bool("noshrink", false, "skip ddmin shrinking of a violation window")
	noVerify := fs.Bool("noverify", false, "skip the byte-identical replay verification")
	faults := fs.String("faults", "", "fault injection: preset or grammar (see 'elin list'; e.g. stall:0@64+256,jitter:5)")
	crashAt := fs.Uint64("crash-at", 0, "crash the run at commit K (shorthand for -faults crash:K)")
	serial := fs.Bool("serial", false, "deterministic serial driver: byte-identical history and WAL across reruns")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := sf.scenario()
	pf.apply(&s)
	s.Rate = *rate
	s.LatencySample = *latSample
	s.FuzzRuns = *fuzz
	s.NoShrink = *noShrink
	s.NoVerify = *noVerify
	s.Faults = *faults
	s.Serial = *serial
	if *crashAt > 0 {
		crash := fmt.Sprintf("crash:%d", *crashAt)
		// Expand presets to grammar before combining; a duplicate crash
		// directive (or an unparseable -faults value) errors downstream.
		if sp, err := registry.Faults(s.Faults); err != nil {
			s.Faults += "," + crash
		} else if sp.Zero() {
			s.Faults = crash
		} else {
			s.Faults = sp.String() + "," + crash
		}
	}

	rep, err := scenario.Run("live", s)
	if err != nil {
		return err
	}
	return sf.emit(out, rep)
}
