package live

import "github.com/elin-go/elin/internal/history"

// CommitSink receives the run's merged event stream as it is established —
// the storage-agnostic seam between the live runtime's commit/sequencing
// path and its persistence backend. The in-memory path is a nil sink (no
// calls, zero hot-path cost); wal.Log implements the interface directly
// and turns the stream into a durable commit log.
//
// AppendEvents observes a drain: the merged events [from, to) of h, with
// pos[i-from] the merge position of event i (the commit ticket for a
// response, the sequencer stamp for an invocation). Drains arrive in merge
// order (the canonical history order), from the single merging goroutine —
// implementations need no locking against the runtime, and read h only
// during the call. The run's Pipeline owns the sink it is given and is its
// only caller: it closes the sink exactly once, on normal completion, on
// every error path and at an injected crash (the crash cut flushes, so a
// simulated crash loses in-flight operations, not buffered frames; torn
// tails are injected separately via faults.Spec.CorruptFile).
type CommitSink interface {
	AppendEvents(h *history.History, from, to int, pos []uint64) error
	Close() error
}
