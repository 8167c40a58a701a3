package live

import (
	"errors"
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
)

// ErrStop is what Pipeline.Feed returns for the event that cuts the checked
// stream: the injected crash commit, or the event that completed a window
// violating tolerance (Crashed and Violation say which). The pipeline has
// recorded the cut; stopping the run on it (live.Run) or carrying on
// (the server) is the driver's policy.
var ErrStop = errors.New("live: pipeline stop")

// Pipeline is the commit pipeline every driver funnels its merged event
// stream through — the one place the order
//
//	merged event -> commit sink (durable) -> injected crash cut -> online monitor
//
// is written down. A commit is durable before anything else sees it; the
// crash commit IS durable (what a real machine loses is everything after its
// last synced frame, injected separately via WAL corruption) and the monitor
// never sees it; the monitor checks only what the log already holds.
//
// The pipeline owns what it is built from: the sink is closed exactly once
// — by Finish, by Abort, or by NewPipeline itself when construction fails —
// and the monitor's resources are released on the same paths. Feed, Finish
// and Abort are called from the single merging goroutine; the accessors are
// safe from there at any time and from anywhere once Finish or Abort has
// returned.
type Pipeline struct {
	sink        CommitSink    // nil when the run keeps no log, and once closed
	mon         check.Monitor // nil under monitor spec none
	crashAt     uint64
	crashed     bool
	crashTicket uint64
	violation   *check.WindowViolation
}

// NewPipeline builds the pipeline for a run of obj: the monitor ms selects
// (none at all under kind none — the only place that decision is made)
// windowed by mc, the sink (nil: in-memory run), the crash-at-commit ticket
// (0: no injected crash), and an optional recovered history prefix. The
// prefix primes the monitor, so window accounting and commit-order state
// span the crash cut; it is not re-appended to the sink (it is already
// durable in the log it came from). A prefix that itself violates tolerance
// fails construction, before any new client runs. On every error the sink
// has been closed.
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
	if p.mon == nil || prefix == nil {
		return p, nil
	}
	for i := 0; i < prefix.Len(); i++ {
		v, err := p.mon.Feed(prefix.Event(i))
		if err == nil && v != nil {
			err = fmt.Errorf("violates %d-linearizability in window [%d,%d)", v.MaxT, v.Start, v.End)
		}
		if err != nil {
			p.Abort()
			return nil, fmt.Errorf("live: priming monitor with recovered history: %w", err)
		}
	}
	return p, nil
}

// Feed passes one merged event, with its merge position (commit ticket for
// responses, sequencer stamp for invocations), down the pipeline. A sink or
// monitor failure is returned wrapped and the event goes no further; the
// crash commit and the first violation return ErrStop, bare. After a
// violation the monitor is frozen, so later events are persisted but not
// checked.
func (p *Pipeline) Feed(e history.Event, pos uint64) error {
	if p.sink != nil {
		if err := p.sink.Append(e, pos); err != nil {
			return fmt.Errorf("live: commit sink: %w", err)
		}
	}
	if p.crashAt > 0 && e.Kind == history.KindRespond && pos >= p.crashAt {
		p.crashed, p.crashTicket = true, pos
		return ErrStop
	}
	if p.mon != nil && p.violation == nil {
		v, err := p.mon.Feed(e)
		if err != nil {
			return fmt.Errorf("live: monitor: %w", err)
		}
		if v != nil {
			p.violation = v
			return ErrStop
		}
	}
	return nil
}

// Feeder is the feed every driver passes its merge: Feed, or nil when
// nothing is downstream (no sink, no crash cut, no monitor), so that a
// record-only run builds no event for a Feed that would drop it.
func (p *Pipeline) Feeder() func(history.Event, uint64) error {
	if p.sink == nil && p.crashAt == 0 && p.mon == nil {
		return nil
	}
	return p.Feed
}

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
