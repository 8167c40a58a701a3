package scenario

import (
	"fmt"
	"net"
	"runtime"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/server"
)

// Serve is the networked engine: the object under test goes behind a
// framed-TCP server (package server) and a fleet of Procs retrying clients
// (package loadgen) drives it over real connections, through the network
// fault plane when one is configured. The online monitor runs server-side
// on the merged commit stream and degrades to window sampling under
// overload; the fleet's exactly-once ledger (lost/duplicated commits) is
// part of the verdict alongside the monitor's.
//
// A self-contained Run stands the server up on a loopback port, runs the
// fleet, and shuts down. The CLI's long-lived `elin serve` uses the same
// construction through BuildServer/ServerReport and owns the listener
// itself.
type Serve struct{}

// Name implements Engine.
func (Serve) Name() string { return "serve" }

// BuildServer resolves a scenario into a ready-to-Serve server instance —
// the construction half of the Serve engine, exported for the long-lived
// CLI server. The caller owns the listener and the Shutdown; the server
// owns the commit log (when the scenario writes one) and closes it on
// Shutdown.
func BuildServer(s Scenario) (*server.Server, error) {
	s = s.withDefaults()
	if err := s.rejectNonServe(); err != nil {
		return nil, err
	}
	obj, err := s.resolveLive(s.Procs, s.Seed)
	if err != nil {
		return nil, err
	}
	nf, err := registry.NetFaults(s.NetFaults)
	if err != nil {
		return nil, err
	}
	mspec, mcfg, err := s.resolveMonitor(obj, s.Procs)
	if err != nil {
		return nil, err
	}
	sink, err := s.openWAL(obj.Name(), s.Procs, s.Seed, nil)
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{
		Object:      obj,
		Clients:     s.Procs,
		Monitor:     mcfg,
		MonitorSpec: mspec,
		NetFaults:   nf,
		Sink:        sink,
	})
}

// ServerReport converts a finished server run into the unified Report: the
// Summary is the server side (merged history, monitor verdict, overload
// degradation), res the fleet side when one ran (nil for a long-lived
// server whose clients were external). Replay verification is the caller's
// step — it needs a fresh object.
func ServerReport(s Scenario, sum *server.Summary, res *loadgen.Result) *Report {
	s = s.withDefaults()
	rep := &Report{Schema: Schema, Engine: "serve", Scenario: s.info("serve")}
	rep.history = sum.History
	perf := &PerfInfo{
		Ops:               int(sum.Commits),
		Events:            sum.Events,
		Gomaxprocs:        runtime.GOMAXPROCS(0),
		Overloaded:        sum.Overloaded,
		MonWindowsSkipped: sum.MonSkipped,
		MonEscalations:    sum.MonEscalations,
	}
	if sum.MonMaxSampleEvery > 1 {
		perf.MonSampleEvery = sum.MonMaxSampleEvery
	}
	if res != nil {
		perf.Ops = res.Completed
		perf.NS = int64(res.Elapsed)
		perf.ThroughputOpsS = res.Throughput()
		perf.P50NS, perf.P95NS, perf.P99NS = res.P50NS, res.P95NS, res.P99NS
		rep.Net = &NetInfo{
			Clients:    res.Clients,
			Retries:    res.Retries,
			Reconnects: res.Reconnects,
			Refused:    res.Refused,
			Lost:       res.Lost,
			Duplicated: res.Duplicated,
		}
	}
	rep.Perf = perf
	if s.monitorOff() {
		rep.Verdict = VerdictOK
		rep.Detail = "run completed (monitoring disabled)"
	} else {
		rep.Trend = trendInfo(sum.Verdict)
		if v := sum.Violation; v != nil {
			rep.Verdict = VerdictViolation
			rep.Detail = v.String()
			// The window is reported as-is: shrink-to-simulator is the live
			// engine's pipeline; a networked witness replays with elin sim.
			rep.Witness = witnessInfo(v, nil)
		} else {
			rep.Verdict = VerdictOK
			rep.Detail = "no monitor window exceeded tolerance"
		}
	}
	if res != nil && (res.Lost > 0 || res.Duplicated > 0) {
		rep.Verdict = VerdictViolation
		rep.Detail = fmt.Sprintf("exactly-once broken: %d lost, %d duplicated commits (%s)",
			res.Lost, res.Duplicated, rep.Detail)
	}
	if rep.Verdict == VerdictOK && sum.Overloaded {
		rep.Detail += "; monitor degraded to sampling under overload"
	}
	return rep
}

// Run implements Engine: a self-contained serve run on a loopback port.
func (Serve) Run(s Scenario) (*Report, error) {
	s = s.withDefaults()
	srv, err := BuildServer(s)
	if err != nil {
		return nil, err
	}
	// A fresh resolve for the fleet's generator and the replay check; the
	// served instance accumulates state.
	obj, err := s.resolveLive(s.Procs, s.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := registry.OpGenByName(s.Workload, obj.Spec())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("scenario: serve: %w", err)
	}
	srv.Serve(ln)
	res, lerr := loadgen.Run(loadgen.Config{
		Addr:          ln.Addr().String(),
		Clients:       s.Procs,
		Ops:           s.Ops,
		Gen:           gen,
		Seed:          s.Seed,
		Rate:          s.Rate,
		LatencySample: s.LatencySample,
	})
	sum, serr := srv.Shutdown()
	if lerr != nil && res == nil {
		return nil, lerr // the fleet never ran (config error)
	}
	if serr != nil {
		return nil, serr
	}
	rep := ServerReport(s, sum, res)
	if lerr != nil {
		// The fleet ran but a client gave up: the partial result (and its
		// lost ops) is the report, the error its verdict.
		rep.Verdict = VerdictViolation
		rep.Detail = fmt.Sprintf("fleet failed: %v", lerr)
		return rep, nil
	}
	if rep.Verdict == VerdictOK && !s.NoVerify {
		same, err := live.Verify(obj, sum.History)
		if err != nil {
			return nil, err
		}
		rep.Checks = &Checks{ReplayIdentical: boolPtr(same)}
	}
	return rep, nil
}
