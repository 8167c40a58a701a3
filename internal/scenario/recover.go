package scenario

import (
	"fmt"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/wal"
)

// Recover runs the crash-recovery pipeline on the Live engine: recover a
// commit log (truncating any torn tail at the first bad frame), replay it
// against a fresh template — verifying every recorded response against the
// commit-determinism contract — and continue the run with fresh clients on
// top of the recovered state, online-monitoring the stitched history
// (under s.Monitor, like any live run) so the verdict covers the crash cut.
// Like any clean live run, the stitched history is then replayed against a
// fresh object (Checks.ReplayIdentical) unless s.NoVerify is set.
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
// over and the log is not read a second time. Past the header defaults it
// is the live engine's run with rec as its recovered prefix.
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
	return s.withDefaults().runLive(rec)
}

// recoveryDetail words a clean continuation's verdict detail.
func (s Scenario) recoveryDetail(rec *wal.Recovered, rr *live.ResumeResult, res *live.Result) string {
	checked := "stitched history within tolerance"
	if s.monitorOff() {
		checked = "monitoring disabled"
	}
	switch {
	case res.Crashed:
		return fmt.Sprintf("recovered %d commits, then crashed again at commit %d (injected fault)",
			rr.Committed, res.CrashTicket)
	case rec.Torn:
		return fmt.Sprintf("recovered %d commits from a torn log (cut at byte %d) and continued %d ops; %s",
			rr.Committed, rec.TornAt, res.Ops, checked)
	default:
		return fmt.Sprintf("recovered %d commits and continued %d ops; %s",
			rr.Committed, res.Ops, checked)
	}
}
