package scenario

import (
	"fmt"
	"runtime"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// Live is the real-concurrency engine: Procs goroutine clients hammer one
// genuinely shared object, an online windowed monitor t-lin-checks the
// merged history as it grows, and a violation is ddmin-shrunk and
// confirmed in the deterministic simulator. With FuzzRuns > 0 the engine
// runs a fuzz campaign: FuzzRuns single runs at consecutive seeds.
type Live struct{}

// Name implements Engine.
func (Live) Name() string { return "live" }

// resolveLive resolves the object under stress for clients recording
// clients, its response choices pinned to seed.
func (s Scenario) resolveLive(clients int, seed int64) (live.Object, error) {
	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, err
	}
	return registry.LiveObject(s.Impl, clients, policy, seed, s.Check)
}

// monitorStride picks the window stride: generous for the polynomial
// checkers, capped for generic types whose windows hold at most
// check.MaxOpsPerObject operations.
func monitorStride(obj live.Object, clients, stride int) (int, error) {
	if stride > 0 {
		return stride, nil
	}
	switch obj.Spec().Type.(type) {
	case spec.FetchInc, spec.Consensus:
		return 512, nil
	default:
		s := 2 * (check.MaxOpsPerObject - clients - 2)
		if s < 8 {
			return 0, fmt.Errorf("scenario: %d clients leave no window room for the generic checker (cap %d ops); lower Procs or set Monitor to none",
				clients, check.MaxOpsPerObject)
		}
		if s > 80 {
			s = 80
		}
		return s, nil
	}
}

// resolveMonitor resolves the monitor spec and the windowing config it
// runs under on obj with the given number of recording clients. Spec none
// needs no stride, so it never fails on window room.
func (s Scenario) resolveMonitor(obj live.Object, clients int) (check.MonitorSpec, check.IncrementalConfig, error) {
	cfg := check.IncrementalConfig{MaxT: s.Tolerance, Opts: s.Check}
	ms, err := registry.MonitorSpec(s.Monitor)
	if err == nil && ms.Kind != check.MonitorNone {
		cfg.Stride, err = monitorStride(obj, clients, s.Stride)
	}
	return ms, cfg, err
}

// openWAL creates the commit log the scenario asks for and returns it as
// the run's sink (nil when the scenario writes none). The header records
// what a later Recover needs to rebuild the object: its registry and
// history names, the proc-id space and the seed its response choices are
// a function of. A continuation's log starts with the bytes of the
// recovered prefix rec, so it is self-contained and itself recoverable.
func (s Scenario) openWAL(objName string, procs int, seed int64, rec *wal.Recovered) (live.CommitSink, error) {
	if s.WAL == "" {
		if s.WALSync != "" {
			return nil, fmt.Errorf("scenario: WALSync %q set without a WAL path", s.WALSync)
		}
		return nil, nil
	}
	pol, err := wal.ParseSyncPolicy(s.WALSync)
	if err != nil {
		return nil, err
	}
	log, err := wal.Create(s.WAL, wal.Header{
		Object:    s.Impl,
		ObjName:   objName,
		Procs:     procs,
		Ops:       s.Ops,
		Workload:  orDefault(s.Workload, DefaultWorkload),
		Policy:    orDefault(s.Policy, DefaultPolicy),
		Seed:      seed,
		Tolerance: s.Tolerance,
	}, pol)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := log.AppendRecovered(rec); err != nil {
			log.Close()
			return nil, fmt.Errorf("scenario: recover: copying prefix into %s: %w", s.WAL, err)
		}
	}
	return log, nil
}

// liveReport reports a finished live run of obj: history, perf, the
// monitor's trend when one ran, what a continuation of rec recovered, and
// on a violation the detail and witness. A clean run that did not crash
// is replayed against a fresh obj (Checks.ReplayIdentical) unless
// s.NoVerify is set.
func (s Scenario) liveReport(obj live.Object, res *live.Result, rec *wal.Recovered, rr *live.ResumeResult) (*Report, error) {
	rep := &Report{Schema: Schema, Engine: "live", Scenario: s.info("live"), Verdict: VerdictOK}
	rep.history = res.History
	rep.Perf = &PerfInfo{
		Ops:               res.Ops,
		Events:            res.History.Len(),
		NS:                res.Elapsed.Nanoseconds(),
		ThroughputOpsS:    res.Throughput,
		P50NS:             res.LatP50.Nanoseconds(),
		P95NS:             res.LatP95.Nanoseconds(),
		P99NS:             res.LatP99.Nanoseconds(),
		Gomaxprocs:        runtime.GOMAXPROCS(0),
		MonWindowsSkipped: res.MonSkipped,
	}
	if !s.monitorOff() {
		rep.Trend = trendInfo(res.Verdict)
	}
	if rec != nil {
		rep.Recovery = &RecoveryInfo{
			Frames:           rec.Frames,
			Torn:             rec.Torn,
			TornAt:           rec.TornAt,
			RecoveredEvents:  rec.Frames,
			RecoveredCommits: rr.Committed,
			PendingOps:       rr.Pending,
			ResumedSeq:       rr.NextSeq,
			ContinuedOps:     res.Ops,
			StitchedEvents:   res.History.Len(),
		}
	}
	if res.Violation != nil {
		rep.Verdict = VerdictViolation
		rep.Detail = res.Violation.String()
		var w *live.Witness
		if !s.NoShrink {
			var err error
			if w, err = live.Shrink(res.Violation, s.Check); err != nil {
				return nil, err
			}
		}
		rep.Witness = witnessInfo(res.Violation, w)
		return rep, nil
	}
	switch {
	case rec != nil:
		rep.Detail = s.recoveryDetail(rec, rr, res)
	case res.Crashed:
		rep.Detail = fmt.Sprintf("crashed at commit %d (injected fault); %d ops merged before the cut", res.CrashTicket, res.Ops)
	case s.monitorOff():
		rep.Detail = "run completed (monitoring disabled)"
	default:
		rep.Detail = "no monitor window exceeded tolerance"
	}
	if res.Crashed || s.NoVerify {
		// A crashed run's history ends mid-flight: replay verification
		// applies to its recovered continuation (Continue), not the cut.
		return rep, nil
	}
	same, err := live.Verify(obj, res.History)
	if err != nil {
		return nil, err
	}
	rep.Checks = &Checks{ReplayIdentical: boolPtr(same)}
	return rep, nil
}

// Run implements Engine.
func (Live) Run(s Scenario) (*Report, error) {
	return s.withDefaults().runLive(nil)
}

// runLive runs s on the live engine. With rec set it continues that
// recovered log (Continue): the object is built for the crashed run's
// clients plus s.Procs under the header seed, which pins the logged
// response choices, and resumed to the log's last commit, and a WAL the
// scenario writes starts with the recovered prefix.
func (s Scenario) runLive(rec *wal.Recovered) (*Report, error) {
	if nf := s.option("net-faults"); nf != "" {
		return nil, fmt.Errorf("scenario: net-faults %q are a serve-engine feature; engine %q rejects them (the live engine has no connections to sever)", nf, "live")
	}
	if s.FuzzRuns > 0 {
		fspec, err := s.resolveFaults()
		if err != nil {
			return nil, err
		}
		if rec != nil || s.WAL != "" || !fspec.Zero() {
			return nil, fmt.Errorf("scenario: fuzz campaigns do not compose with recovery, faults or WAL logging")
		}
		return s.fuzzLive()
	}
	clients, seed := s.Procs, s.Seed
	if rec != nil {
		clients, seed = rec.Header.Procs+s.Procs, rec.Header.Seed
	}
	obj, err := s.resolveLive(clients, seed)
	if err != nil {
		return nil, err
	}
	gen, err := registry.OpGenByName(s.Workload, obj.Spec())
	if err != nil {
		return nil, err
	}
	mspec, mcfg, err := s.resolveMonitor(obj, clients)
	if err != nil {
		return nil, err
	}
	fspec, err := s.resolveFaults()
	if err != nil {
		return nil, err
	}
	cfg := live.Config{
		Object:        obj,
		Clients:       s.Procs,
		Ops:           s.Ops,
		Gen:           gen,
		Seed:          s.Seed,
		Rate:          s.Rate,
		Monitor:       mcfg,
		MonitorSpec:   mspec,
		LatencySample: s.LatencySample,
		Faults:        fspec,
		Serial:        s.Serial,
	}
	var rr *live.ResumeResult
	if rec != nil {
		if rr, err = live.Resume(obj, rec); err != nil {
			return nil, err
		}
		cfg.Object, cfg.StartSeq, cfg.History, cfg.ProcBase = rr.Object, rr.NextSeq, rec.History.Clone(), rec.Header.Procs
	}
	if cfg.Sink, err = s.openWAL(obj.Name(), clients, seed, rec); err != nil {
		return nil, err
	}
	res, err := live.Run(cfg)
	if err != nil {
		return nil, err
	}
	return s.liveReport(obj, res, rec, rr)
}

// witnessInfo reports a violating window: as the monitor froze it, or —
// when w is non-nil — as its shrunk, sim-confirmed form.
func witnessInfo(v *check.WindowViolation, w *live.Witness) *WitnessInfo {
	wi := &WitnessInfo{
		WindowStart: v.Start,
		WindowEnd:   v.End,
		MinT:        v.MinT,
		History:     v.Window.String(),
	}
	if w == nil {
		return wi
	}
	wi.History = w.History.String()
	wi.Shrunk = &ShrunkInfo{
		Ops:         w.Ops,
		Trials:      w.Trials,
		SimDiverged: w.Replay != nil && w.Replay.Diverged,
	}
	if wi.Shrunk.SimDiverged {
		wi.Shrunk.Proc = w.Replay.Proc
		wi.Shrunk.Op = w.Replay.Op.String()
		wi.Shrunk.Got = w.Replay.Got
		wi.Shrunk.Want = w.Replay.Want
	}
	return wi
}

// fuzzLive runs s as a fuzz campaign. Run i is the single run of s at
// seed s.Seed+i — object, client streams and response choices alike — so
// a reported seed X reruns as the scenario with Seed X and no FuzzRuns.
// The campaign stops at the first violation and reports its witness.
func (s Scenario) fuzzLive() (*Report, error) {
	rep := &Report{Schema: Schema, Engine: "live", Scenario: s.info("live"), Verdict: VerdictOK}
	rep.Fuzz = &FuzzInfo{}
	one := s
	// The campaign report carries no checks, so its runs skip replay.
	one.FuzzRuns, one.NoVerify = 0, true
	for i := 0; i < s.FuzzRuns; i++ {
		one.Seed = s.Seed + int64(i)
		run, err := one.runLive(nil)
		if err != nil {
			return nil, fmt.Errorf("scenario: fuzz run %d (seed %d): %w", i, one.Seed, err)
		}
		rep.Fuzz.Runs++
		rep.Fuzz.TotalOps += run.Perf.Ops
		if run.Verdict == VerdictViolation {
			rep.Verdict = VerdictViolation
			rep.Detail = fmt.Sprintf("violation at seed %d: %s", one.Seed, run.Detail)
			rep.Fuzz.Found, rep.Fuzz.Seed = true, one.Seed
			rep.Witness = run.Witness
			return rep, nil
		}
	}
	rep.Detail = fmt.Sprintf("no violation in %d runs", rep.Fuzz.Runs)
	return rep, nil
}
