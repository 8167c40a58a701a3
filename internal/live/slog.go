package live

import (
	"fmt"
	"sync/atomic"

	"github.com/elin-go/elin/internal/spec"
)

// SlogFetchInc is the dedicated lock-free live fast path of the
// stabilizing-log counter (internal/core/stablog): the shared append-only
// log of a counter degenerates to the commit sequencer itself — appending
// a fetchinc IS drawing a ticket, and the entry's log position is
// ticket-1. Apply is therefore a single atomic fetch-add plus per-client
// arithmetic, no mutex anywhere.
//
// Each client keeps its own stable frontier and pending count (written
// only by that client's goroutine, in cache-line-padded slots). While the
// gap between a new position and the frontier stays below the promotion
// batch K the client answers speculatively with frontier+pending — the
// counter value the agreed order would give if its own pending operations
// came right after the stable prefix. Once the gap reaches K it promotes:
// the agreed-order response at position pos of an all-fetchinc log is pos
// itself, so catch-up needs no log scan at all. Batch 1 never speculates
// and is exactly AtomicFetchInc.
//
// Responses are a pure function of the (proc, ticket) commit sequence, so
// Verify re-derives every one of them — the package's reproducibility
// contract.
type SlogFetchInc struct {
	name    string
	batch   int64
	clients []slogClient
}

// slogClient is one client's speculation state, padded so concurrent
// writers of neighbouring slots never share a cache line.
type slogClient struct {
	frontier int64 // stable prefix length this client has promoted
	pending  int64 // own speculative ops past the frontier
	_        [48]byte
}

var _ Object = (*SlogFetchInc)(nil)

// NewSlogFetchInc returns the lock-free stabilizing-log counter for the
// given client count; batch is the promotion batch K (min 1).
func NewSlogFetchInc(name string, batch int64, clients int) (*SlogFetchInc, error) {
	if batch < 1 {
		return nil, fmt.Errorf("live: slog batch %d out of range (want >= 1)", batch)
	}
	if clients < 1 {
		return nil, fmt.Errorf("live: slog needs at least one client (got %d)", clients)
	}
	return &SlogFetchInc{name: name, batch: batch, clients: make([]slogClient, clients)}, nil
}

// Name implements Object.
func (c *SlogFetchInc) Name() string { return c.name }

// Spec implements Object. The construction is eventually linearizable for
// batch > 1: speculative responses lag the agreed order by at most
// batch-1 concurrent operations, so the monitor sees a bounded,
// stabilizing MinT rather than a violation-free history.
func (c *SlogFetchInc) Spec() spec.Object { return spec.NewObject(spec.FetchInc{}) }

// Fresh implements Object.
func (c *SlogFetchInc) Fresh() (Object, error) {
	cp, err := NewSlogFetchInc(c.name, c.batch, len(c.clients))
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// Apply implements Object: the ticket draw is the append, position
// ticket-1 is the operation's place in the agreed order.
func (c *SlogFetchInc) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	if op.Method != spec.MethodFetchInc || op.NArgs != 0 {
		return 0, 0, fmt.Errorf("live: %s rejects %s (fetchinc only)", c.name, op)
	}
	if proc < 0 || proc >= len(c.clients) {
		return 0, 0, fmt.Errorf("live: %s has %d client slots, got proc %d", c.name, len(c.clients), proc)
	}
	st := &c.clients[proc]
	ticket := seq.Add(1)
	pos := int64(ticket) - 1
	if pos+1-st.frontier >= c.batch {
		// Promote: the agreed order of an all-fetchinc log answers pos.
		st.frontier = pos + 1
		st.pending = 0
		return pos, ticket, nil
	}
	resp := st.frontier + st.pending
	st.pending++
	return resp, ticket, nil
}
