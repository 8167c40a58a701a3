package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
)

// runLoad drives a retrying client fleet at a server. Two modes:
//
//   - `-self`: stand the server up in-process and run the full serve
//     engine — monitor verdict, exactly-once ledger, replay check. This is
//     the form sweep repro commands print, and it is byte-for-byte the
//     scenario a serve campaign cell ran.
//   - `-addr HOST:PORT`: load an external `elin serve` process. The fleet
//     reports its own ledger and latency percentiles; the monitor verdict
//     lives with the server (interrupt it for the report).
//
// Either way the exit status is the exactly-once contract: any lost or
// duplicated commit is a non-zero exit.
func runLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin load", flag.ContinueOnError)
	sf := addScenarioFlags(fs, "atomic-fi", 4, 10000, "window:400", 1)
	addr := fs.String("addr", "", "server address to load (exactly one of -addr and -self)")
	self := fs.Bool("self", false, "serve in-process: the self-contained serve engine")
	netFaults := fs.String("net-faults", "", "network fault plane, -self only (the server injects the faults)")
	pf := addPipelineFlags(fs, "wal") // -self only, like -net-faults: the server owns the pipeline
	noVerify := fs.Bool("noverify", false, "skip the replay-identical check (-self only)")
	rate := fs.Float64("rate", 0, "per-client open-loop pacing in ops/sec (0 = closed loop)")
	latSample := fs.Int("latsample", 0, "record one latency sample every N ops per client (0 = the largest power of two leaving each client >= 1024 samples)")
	maxAttempts := fs.Int("max-attempts", 0, "connection attempts per pending op before a client gives up (0 = 200)")
	backoffBase := fs.Duration("backoff-base", 0, "reconnect backoff base (0 = 200µs)")
	backoffCap := fs.Duration("backoff-cap", 0, "reconnect backoff cap (0 = 50ms)")
	ioTimeout := fs.Duration("io-timeout", 0, "per-dial and per-response wait bound (0 = 10s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *self == (*addr != "") {
		return fmt.Errorf("load: exactly one of -addr and -self")
	}

	if *self {
		s := sf.scenario()
		pf.apply(&s)
		s.NetFaults = *netFaults
		s.NoVerify = *noVerify
		s.Rate = *rate
		s.LatencySample = *latSample
		rep, err := scenario.Run("serve", s)
		if err != nil {
			return err
		}
		if err := sf.emit(out, rep); err != nil {
			return err
		}
		if rep.Verdict != scenario.VerdictOK {
			return fmt.Errorf("load: %s", rep.Detail)
		}
		return nil
	}

	// External server: resolve the same generator the serve engine would,
	// run the fleet, report the client-side view. The retry-shaping flags
	// matter here — against a real network they are the tuning surface.
	for flagName, set := range map[string]bool{
		"net-faults": *netFaults != "", "wal": *pf.wal != "", "wal-sync": *pf.walSync != "",
		"stride": *pf.stride != 0, "monitor": *pf.monitor != "", "noverify": *noVerify,
	} {
		if set {
			return fmt.Errorf("load: -%s is server-side state and needs -self (or pass it to 'elin serve')", flagName)
		}
	}
	pol, err := registry.Policy(*sf.policy)
	if err != nil {
		return err
	}
	obj, err := registry.LiveObject(*sf.impl, *sf.procs, pol, *sf.seed, check.Options{})
	if err != nil {
		return err
	}
	gen, err := registry.OpGenByName(*sf.workload, obj.Spec())
	if err != nil {
		return err
	}
	res, lerr := loadgen.Run(loadgen.Config{
		Addr:          *addr,
		Clients:       *sf.procs,
		Ops:           *sf.ops,
		Gen:           gen,
		Seed:          *sf.seed,
		Rate:          *rate,
		LatencySample: *latSample,
		MaxAttempts:   *maxAttempts,
		BackoffBase:   *backoffBase,
		BackoffCap:    *backoffCap,
		IOTimeout:     *ioTimeout,
	})
	if res != nil {
		fmt.Fprintf(out, "load %s: clients=%d ops=%d completed=%d lost=%d duplicated=%d\n",
			*addr, res.Clients, res.Ops, res.Completed, res.Lost, res.Duplicated)
		fmt.Fprintf(out, "  retries=%d reconnects=%d refused=%d elapsed=%v throughput=%.0f ops/s\n",
			res.Retries, res.Reconnects, res.Refused, res.Elapsed.Round(time.Millisecond), res.Throughput())
		fmt.Fprintf(out, "  latency: p50=%v p95=%v p99=%v max=%v\n",
			time.Duration(res.P50NS), time.Duration(res.P95NS),
			time.Duration(res.P99NS), time.Duration(res.MaxNS))
	}
	if lerr != nil {
		return lerr
	}
	if res.Lost > 0 || res.Duplicated > 0 {
		return fmt.Errorf("load: exactly-once broken: %d lost, %d duplicated commits", res.Lost, res.Duplicated)
	}
	return nil
}
