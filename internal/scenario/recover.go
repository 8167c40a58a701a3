package scenario

import (
	"fmt"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/wal"
)

// Recover runs the crash-recovery pipeline on the Live engine: recover a
// commit log (truncating any torn tail at the first bad frame), replay it
// against a fresh template — verifying every recorded response against the
// commit-determinism contract — and continue the run with fresh clients on
// top of the recovered state, online-monitoring the stitched history
// (under s.Monitor, like any live run) so the verdict covers the crash cut.
//
// The scenario parameterizes the continuation; zero-valued fields default
// from the log header, so Recover("run.wal", Scenario{}) continues a
// crashed run exactly as it was configured. Seed defaults to the header
// seed + 1 (the continuation draws fresh op streams; the header seed keeps
// pinning the recovered object's response choices). When s.WAL names a
// path, the recovered prefix is copied into it before the continuation
// appends, so the new log is self-contained and itself recoverable.
func Recover(walPath string, s Scenario) (*Report, error) {
	rec, err := wal.Recover(walPath)
	if err != nil {
		return nil, err
	}
	return Continue(rec, s)
}

// Continue is Recover from the log already read back: the caller that
// looked at rec first (elin recover -strict refuses a torn one) hands it
// over and the log is not read a second time.
func Continue(rec *wal.Recovered, s Scenario) (*Report, error) {
	hdr := rec.Header
	if s.Procs <= 0 {
		s.Procs = hdr.Procs
	}
	if s.Ops <= 0 {
		s.Ops = hdr.Ops
	}
	if s.Workload == "" {
		s.Workload = hdr.Workload
	}
	if s.Policy == "" {
		s.Policy = hdr.Policy
	}
	if s.Tolerance == 0 {
		s.Tolerance = hdr.Tolerance
	}
	if s.Seed == 0 {
		s.Seed = hdr.Seed + 1
	}
	s.Impl = hdr.Object
	s.LiveValue, s.ImplValue = nil, nil
	s = s.withDefaults()

	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, err
	}
	fspec, err := s.resolveFaults()
	if err != nil {
		return nil, err
	}
	// The template covers the crashed run's procs plus the continuation
	// clients and replays with the original seed: response choices of
	// eventually linearizable objects are a pure function of (seed, ticket),
	// which is what makes the recorded log verifiable at all.
	template, err := registry.LiveObject(hdr.Object, hdr.Procs+s.Procs, policy, hdr.Seed, s.Check)
	if err != nil {
		return nil, fmt.Errorf("scenario: recover: %w", err)
	}
	rr, err := live.Resume(template, rec)
	if err != nil {
		return nil, err
	}
	gen, err := registry.OpGenByName(s.Workload, rr.Object.Spec())
	if err != nil {
		return nil, err
	}
	mspec, mcfg, err := s.resolveMonitor(rr.Object, hdr.Procs+s.Procs)
	if err != nil {
		return nil, err
	}
	// The continuation's log is self-contained: same object and seed as the
	// recovered one, a proc-id space covering both runs, and the recovered
	// prefix copied in before any pipeline appends to it.
	sink, err := s.openWAL(hdr.ObjName, hdr.Procs+s.Procs, hdr.Seed)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		for e, pos := range rec.All() {
			if err := sink.Append(e, pos); err != nil {
				sink.Close()
				return nil, fmt.Errorf("scenario: recover: copying prefix into %s: %w", s.WAL, err)
			}
		}
	}
	res, err := live.Run(live.Config{
		Object:        rr.Object,
		Clients:       s.Procs,
		Ops:           s.Ops,
		Gen:           gen,
		Seed:          s.Seed,
		Rate:          s.Rate,
		Monitor:       mcfg,
		MonitorSpec:   mspec,
		LatencySample: s.LatencySample,
		Faults:        fspec,
		Sink:          sink,
		Serial:        s.Serial,
		StartSeq:      rr.NextSeq,
		ProcBase:      hdr.Procs,
		History:       rr.History,
	})
	if err != nil {
		return nil, err
	}
	rep, err := s.liveReport(res)
	if err != nil {
		return nil, err
	}
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
	if !rep.OK() {
		return rep, nil
	}
	checked := "stitched history within tolerance"
	if s.monitorOff() {
		checked = "monitoring disabled"
	}
	switch {
	case res.Crashed:
		rep.Detail = fmt.Sprintf("recovered %d commits, then crashed again at commit %d (injected fault)",
			rr.Committed, res.CrashTicket)
	case rec.Torn:
		rep.Detail = fmt.Sprintf("recovered %d commits from a torn log (cut at byte %d) and continued %d ops; %s",
			rr.Committed, rec.TornAt, res.Ops, checked)
	default:
		rep.Detail = fmt.Sprintf("recovered %d commits and continued %d ops; %s",
			rr.Committed, res.Ops, checked)
	}
	return rep, nil
}
