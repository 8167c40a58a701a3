package live

import (
	"errors"
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
)

// ErrStop is what Pipeline.Advance returns when the stream is cut: at the
// injected crash commit, or at the event that completed a window violating
// tolerance (Crashed and Violation say which). The pipeline has recorded
// the cut; stopping the run on it (live.Run) or carrying on (the server) is
// the driver's policy.
var ErrStop = errors.New("live: pipeline stop")

// Pipeline is the commit pipeline every driver funnels its merged history
// through — the one place the order
//
//	merged event -> commit sink (durable) -> injected crash cut -> online monitor
//
// is written down. A commit is durable before the run reports anything
// about it; the crash commit IS durable (what a real machine loses is
// everything after its last synced frame, injected separately via WAL
// corruption) and the monitor never sees it; a sink failure ends the run
// before any verdict on events the sink has not taken.
//
// The pipeline owns what it is built from: the sink is closed exactly once
// — by Finish, by Abort, or by NewPipeline itself when construction fails —
// and the monitor's resources are released on the same paths. Advance,
// Finish and Abort are called from the single merging goroutine; the
// accessors are safe from there at any time and from anywhere once Finish
// or Abort has returned.
type Pipeline struct {
	sink        CommitSink    // nil when the run keeps no log, and once closed
	mon         check.Monitor // nil under monitor spec none
	crashAt     uint64
	crashed     bool
	crashTicket uint64
	violation   *check.WindowViolation
	at          int // events passed down the pipeline; after a stop, the cut
}

// NewPipeline builds the pipeline for a run of obj: the monitor ms selects
// (none at all under kind none — the only place that decision is made)
// windowed by mc, the sink (nil: in-memory run), the crash-at-commit ticket
// (0: no injected crash), and an optional recovered history prefix. The
// prefix primes the monitor, so window accounting and commit-order state
// span the crash cut; it is not re-appended to the sink (it is already
// durable in the log it came from), and Advance takes the history that
// extends it. A prefix that itself violates tolerance fails construction,
// before any new client runs. On every error the sink has been closed.
func NewPipeline(obj Object, ms check.MonitorSpec, mc check.IncrementalConfig, sink CommitSink, crashAt uint64, prefix *history.History) (*Pipeline, error) {
	p := &Pipeline{sink: sink, crashAt: crashAt}
	if obj == nil {
		p.Abort()
		return nil, fmt.Errorf("live: pipeline needs an object")
	}
	if ms.Kind != check.MonitorNone {
		mon, err := check.NewMonitor(ms, obj.Spec(), mc)
		if err != nil {
			p.Abort()
			return nil, err
		}
		p.mon = mon
	}
	if prefix != nil {
		p.at = prefix.Len()
	}
	if p.mon == nil || prefix == nil {
		return p, nil
	}
	v, err := p.mon.Advance(prefix, prefix.Len())
	if err == nil && v != nil {
		err = fmt.Errorf("violates %d-linearizability in window [%d,%d)", v.MaxT, v.Start, v.End)
	}
	if err != nil {
		p.Abort()
		return nil, fmt.Errorf("live: priming monitor with recovered history: %w", err)
	}
	return p, nil
}

// Positions reports whether Advance reads positions: a sink or crash cut does.
func (p *Pipeline) Positions() bool { return p.sink != nil || p.crashAt > 0 }

// Advance passes down the pipeline the events of h it has not passed yet: a
// drain's worth, or one event. pos holds the merge positions (commit ticket
// or sequencer stamp) of h's last len(pos) events, those at least; it may be
// nil unless Positions. The outcome is that of passing the events one at a
// time: the monitor advances up to the crash commit c (the first response
// at or past crashAt), the stream stops at the violating window's End, else
// just after c, and the sink takes every event before the stop, in one
// AppendEvents. A stop returns ErrStop, bare; a sink or monitor failure,
// wrapped. After a violation the monitor is frozen and later calls only
// log; after a crash the stream is over.
func (p *Pipeline) Advance(h *history.History, pos []uint64) error {
	if p.crashed {
		return ErrStop
	}
	from, stop, base, crash := p.at, h.Len(), h.Len()-len(pos), -1
	for i := from; p.crashAt > 0 && i < stop; i++ {
		if pos[i-base] >= p.crashAt && h.Kind(i) == history.KindRespond {
			crash, stop = i, i
			break
		}
	}
	var err error
	if p.mon != nil && p.violation == nil {
		v, merr := p.mon.Advance(h, stop)
		if merr != nil {
			return fmt.Errorf("live: monitor: %w", merr)
		}
		if v != nil {
			p.violation, stop, crash, err = v, v.End, -1, ErrStop
		}
	}
	if crash >= 0 {
		p.crashed, p.crashTicket, stop, err = true, pos[crash-base], crash+1, ErrStop
	}
	if p.sink != nil && from < stop {
		if serr := p.sink.AppendEvents(h, from, stop, pos[from-base:stop-base]); serr != nil {
			return fmt.Errorf("live: commit sink: %w", serr)
		}
	}
	p.at = stop
	return err
}

// Events is the number of events passed down: after a stop, the run's.
func (p *Pipeline) Events() int { return p.at }

// Finish ends the stream: the monitor checks its final partial window —
// unless the run crashed (the partial window died with the process) or
// already violated — and the sink is flushed and closed. The stream is cut
// here with whatever operations are still pending: the crash cut and a
// server shutdown are the two places a history ends with invocations that
// never get their response.
func (p *Pipeline) Finish() error {
	defer p.Abort()
	if p.mon != nil && !p.crashed && p.violation == nil {
		v, err := p.mon.Finish()
		if err != nil {
			return err
		}
		p.violation = v
	}
	return p.closeSink()
}

// Abort releases the monitor and closes the sink without checking the tail
// window — the error-path counterpart of Finish, safe to defer: it is
// idempotent and a no-op after Finish. It is what keeps an open log file
// from outliving an early return.
func (p *Pipeline) Abort() {
	if p.mon != nil {
		p.mon.Abort()
	}
	// Error dropped: Abort runs on paths that already failed, or after
	// Finish checked the close.
	p.closeSink()
}

func (p *Pipeline) closeSink() error {
	if p.sink == nil {
		return nil
	}
	sink := p.sink
	p.sink = nil
	return sink.Close()
}

// Monitor returns the online monitor, nil under monitor spec none — for
// the verdict and counters, and for the server's overload controller.
func (p *Pipeline) Monitor() check.Monitor { return p.mon }

// Violation returns the window that broke tolerance, if any.
func (p *Pipeline) Violation() *check.WindowViolation { return p.violation }

// Crashed reports whether the injected crash cut the stream, and at which
// commit ticket.
func (p *Pipeline) Crashed() (ticket uint64, ok bool) { return p.crashTicket, p.crashed }
