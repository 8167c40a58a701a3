package live

import (
	"fmt"
	"sync/atomic"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/wal"
)

// ResumeResult is a run rebuilt from its commit log: the object at its
// recovered state and the ticket to continue from. The history prefix a
// continuation extends is the log's own, wal.Recovered.History.
type ResumeResult struct {
	// Object is a fresh instance of the template replayed to the last
	// commit; Run continues it, given NextSeq, ProcBase and rec.History.Clone().
	Object Object
	// NextSeq is the last committed ticket — Config.StartSeq for the
	// continuation, so ticket numbering spans the crash without a gap.
	NextSeq uint64
	// Committed counts the completed operations replayed into Object;
	// Pending counts the in-flight invocations lost to the crash.
	Committed int
	Pending   int
}

// Resume replays the history wal.Recover checked against a fresh instance
// of template, rebuilding the object state up to the log's last durable
// commit. rec is only read, so one recovery can be resumed any number of
// times. The template must be constructed with the log header's parameters
// — same registry object, same Seed (response choices of eventually
// linearizable objects are pure functions of the original seed and the
// ticket), and a client count covering both the crashed run's procs and any
// continuation clients.
//
// Every replayed response and ticket is checked against the recorded one:
// a mismatch means the log and the object disagree on the commit-determinism
// contract (wrong template parameters, or an object whose responses are not
// a function of its commit order) and aborts the resume.
func Resume(template Object, rec *wal.Recovered) (*ResumeResult, error) {
	fresh, err := template.Fresh()
	if err != nil {
		return nil, fmt.Errorf("live: resume: %w", err)
	}
	var seq atomic.Uint64
	h, committed := rec.History, 0
	for i := 0; i < h.Len(); i++ {
		if h.Kind(i) != history.KindRespond {
			continue
		}
		resp, ticket, err := fresh.Apply(h.Proc(i), h.Op(i), &seq)
		if err != nil {
			return nil, fmt.Errorf("live: resume event %d: %w", i, err)
		}
		if pos := rec.Tickets[committed]; resp != h.Resp(i) || ticket != pos {
			return nil, fmt.Errorf("live: resume event %d: log says client %d %s -> %d at ticket %d, replay derives %d at ticket %d (wrong template, or object is not commit-deterministic)",
				i, h.Proc(i), h.Op(i), h.Resp(i), pos, resp, ticket)
		}
		committed++
	}
	return &ResumeResult{
		Object:    fresh,
		NextSeq:   seq.Load(),
		Committed: committed,
		Pending:   h.Len() - 2*committed,
	}, nil
}
