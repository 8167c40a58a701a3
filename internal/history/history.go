// Package history implements the histories of Section 3 of the paper: finite
// sequences of invocation and response events ⟨p, o, x⟩, with projections
// H|p and H|o, well-formedness, operations, and real-time precedence.
//
// Events are indexed from 0. Where the paper speaks of "the first t events"
// of a history H, this package means the events with indices 0..t-1, and the
// suffix H' of Definition 2 consists of the events with indices >= t.
package history

import (
	"fmt"
	"strings"

	"github.com/elin-go/elin/internal/spec"
)

// Kind distinguishes invocation events from response events.
type Kind int

// Event kinds. Enums start at 1 so the zero Event is detectably invalid.
const (
	KindInvoke Kind = iota + 1
	KindRespond
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInvoke:
		return "inv"
	case KindRespond:
		return "res"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a single event ⟨p, o, x⟩ where x is an invocation or a response.
type Event struct {
	// Kind says whether this is an invocation or a response.
	Kind Kind
	// Proc is the process id (0-based).
	Proc int
	// Obj names the object the event is on.
	Obj string
	// Op is the invoked operation; meaningful only when Kind == KindInvoke.
	Op spec.Op
	// Resp is the response value; meaningful only when Kind == KindRespond.
	Resp int64
}

// String renders the event in the compact text format used by the
// serializers: "inv p0 X fetchinc" or "res p0 X 3".
func (e Event) String() string {
	if e.Kind == KindInvoke {
		return fmt.Sprintf("inv p%d %s %s", e.Proc, e.Obj, e.Op)
	}
	return fmt.Sprintf("res p%d %s %d", e.Proc, e.Obj, e.Resp)
}

// Operation is an invocation event together with its matching response event
// (if any): what the paper calls an operation.
type Operation struct {
	// Proc is the invoking process.
	Proc int
	// Obj is the object operated on.
	Obj string
	// Op is the invocation.
	Op spec.Op
	// Inv is the index of the invocation event in the history.
	Inv int
	// Res is the index of the matching response event, or -1 if the
	// operation is pending (has no response in the history).
	Res int
	// Resp is the response value; meaningful only when Res >= 0.
	Resp int64
}

// Pending reports whether the operation has no response in the history.
func (o Operation) Pending() bool { return o.Res < 0 }

// String implements fmt.Stringer.
func (o Operation) String() string {
	if o.Pending() {
		return fmt.Sprintf("p%d %s.%s -> ? [%d,∞)", o.Proc, o.Obj, o.Op, o.Inv)
	}
	return fmt.Sprintf("p%d %s.%s -> %d [%d,%d]", o.Proc, o.Obj, o.Op, o.Resp, o.Inv, o.Res)
}

// History is a well-formed finite history: for every process p, the
// projection H|p is sequential (invocations and matching responses strictly
// alternate). The zero History is empty and ready to use.
type History struct {
	events []Event
	// open[p] is the index of process p's pending invocation, or -1.
	open map[int]int
	// invIdx[i] is, for a response event i, the index of its matching
	// invocation (-1 for invocation events). It makes Truncate restore the
	// pending-operation state in O(1) per removed event.
	invIdx []int
}

// New returns an empty history.
func New() *History {
	return &History{open: make(map[int]int)}
}

// FromEvents builds a history from an event sequence, validating
// well-formedness.
func FromEvents(events []Event) (*History, error) {
	h := New()
	for i, e := range events {
		if err := h.Append(e); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return h, nil
}

// Reserve pre-grows the internal buffers to hold at least n events without
// reallocating. The live runtime's merger calls it once with the run's
// event budget so that merging millions of recorded events never pays an
// append-time copy.
func (h *History) Reserve(n int) {
	if cap(h.events) >= n {
		return
	}
	events := make([]Event, len(h.events), n)
	copy(events, h.events)
	h.events = events
	invIdx := make([]int, len(h.invIdx), n)
	copy(invIdx, h.invIdx)
	h.invIdx = invIdx
}

// Len returns the number of events.
func (h *History) Len() int { return len(h.events) }

// Event returns the i-th event.
func (h *History) Event(i int) Event { return h.events[i] }

// Events returns a copy of the event sequence.
func (h *History) Events() []Event {
	cp := make([]Event, len(h.events))
	copy(cp, h.events)
	return cp
}

// Append adds an event, enforcing well-formedness: a process may not invoke
// while it has a pending operation, and a response must match the process's
// pending invocation (same object).
func (h *History) Append(e Event) error {
	if h.open == nil {
		h.open = make(map[int]int)
	}
	matched := -1
	switch e.Kind {
	case KindInvoke:
		if idx, ok := h.open[e.Proc]; ok && idx >= 0 {
			return fmt.Errorf("process p%d invokes %s on %s while operation at event %d is pending",
				e.Proc, e.Op, e.Obj, idx)
		}
		h.open[e.Proc] = len(h.events)
	case KindRespond:
		idx, ok := h.open[e.Proc]
		if !ok || idx < 0 {
			return fmt.Errorf("process p%d responds with no pending invocation", e.Proc)
		}
		if h.events[idx].Obj != e.Obj {
			return fmt.Errorf("process p%d responds on %s but pending invocation at event %d is on %s",
				e.Proc, e.Obj, idx, h.events[idx].Obj)
		}
		matched = idx
		h.open[e.Proc] = -1
	default:
		return fmt.Errorf("invalid event kind %d", int(e.Kind))
	}
	h.events = append(h.events, e)
	h.invIdx = append(h.invIdx, matched)
	return nil
}

// Invoke appends an invocation event.
func (h *History) Invoke(proc int, obj string, op spec.Op) error {
	return h.Append(Event{Kind: KindInvoke, Proc: proc, Obj: obj, Op: op})
}

// Respond appends the response to proc's pending invocation, inferring the
// object from the pending invocation.
func (h *History) Respond(proc int, resp int64) error {
	if h.open == nil {
		h.open = make(map[int]int)
	}
	idx, ok := h.open[proc]
	if !ok || idx < 0 {
		return fmt.Errorf("process p%d responds with no pending invocation", proc)
	}
	return h.Append(Event{Kind: KindRespond, Proc: proc, Obj: h.events[idx].Obj, Resp: resp})
}

// Call appends a complete operation: an invocation immediately followed by
// its response. It is the building block for sequential histories.
func (h *History) Call(proc int, obj string, op spec.Op, resp int64) error {
	if err := h.Invoke(proc, obj, op); err != nil {
		return err
	}
	return h.Respond(proc, resp)
}

// Operations returns the history's operations in invocation order.
func (h *History) Operations() []Operation {
	return h.operations(make([]Operation, 0, len(h.events)/2+1), nil)
}

// OpTable is a history's operation table in caller-owned buffers: a monitor
// that closes a window every few hundred events fills one table per window
// and reuses it, instead of deriving Operations afresh for every question it
// asks about the window.
type OpTable struct {
	// Ops are the operations in invocation order (what Operations returns).
	Ops []Operation
	// ByRes lists the completed operations, as indexes into Ops, in
	// response-event order.
	ByRes []int
	// Events is the length of the history the table was filled from.
	Events int
}

// Fill rebuilds the table from h, reusing the buffers: once they have grown
// to the history's size a Fill allocates nothing.
func (t *OpTable) Fill(h *History) {
	if n := len(h.events)/2 + 1; cap(t.Ops) < n {
		t.Ops = make([]Operation, 0, n)
		t.ByRes = make([]int, 0, n)
	}
	t.ByRes = t.ByRes[:0]
	t.Ops = h.operations(t.Ops[:0], &t.ByRes)
	t.Events = len(h.events)
}

// operations appends the operations to ops and, when byRes is non-nil, the
// index of each completed one to *byRes as its response event is met.
func (h *History) operations(ops []Operation, byRes *[]int) []Operation {
	// pendingOp[p] is the index into ops of p's pending operation. A small
	// stack array covers the usual process counts without allocating.
	var small [16]int
	pendingOp := small[:]
	for i := range h.events {
		e := &h.events[i]
		for e.Proc >= len(pendingOp) {
			pendingOp = append(pendingOp, 0)
		}
		switch e.Kind {
		case KindInvoke:
			pendingOp[e.Proc] = len(ops)
			ops = append(ops, Operation{
				Proc: e.Proc, Obj: e.Obj, Op: e.Op, Inv: i, Res: -1,
			})
		case KindRespond:
			j := pendingOp[e.Proc]
			ops[j].Res = i
			ops[j].Resp = e.Resp
			if byRes != nil {
				*byRes = append(*byRes, j)
			}
		}
	}
	return ops
}

// ByObject returns the projection H|obj as a new history (event indices are
// renumbered within the projection).
func (h *History) ByObject(obj string) *History {
	p := New()
	for _, e := range h.events {
		if e.Obj == obj {
			// Projection of a well-formed history is well-formed.
			p.events = append(p.events, e)
			if e.Kind == KindInvoke {
				p.invIdx = append(p.invIdx, -1)
				p.open[e.Proc] = len(p.events) - 1
			} else {
				p.invIdx = append(p.invIdx, p.open[e.Proc])
				p.open[e.Proc] = -1
			}
		}
	}
	return p
}

// ByProc returns the projection H|proc as a new history.
func (h *History) ByProc(proc int) *History {
	p := New()
	for _, e := range h.events {
		if e.Proc == proc {
			p.events = append(p.events, e)
			if e.Kind == KindInvoke {
				p.invIdx = append(p.invIdx, -1)
				p.open[e.Proc] = len(p.events) - 1
			} else {
				p.invIdx = append(p.invIdx, p.open[e.Proc])
				p.open[e.Proc] = -1
			}
		}
	}
	return p
}

// ObjectEventIndex returns, for the projection H|obj, the index in H of each
// projected event. It lets callers translate a per-object event count t_o
// back to a global event count t (the construction in Lemma 7).
func (h *History) ObjectEventIndex(obj string) []int {
	var idx []int
	for i, e := range h.events {
		if e.Obj == obj {
			idx = append(idx, i)
		}
	}
	return idx
}

// Objects returns the distinct object names appearing in the history, in
// first-appearance order.
func (h *History) Objects() []string {
	seen := make(map[string]bool)
	var objs []string
	for _, e := range h.events {
		if !seen[e.Obj] {
			seen[e.Obj] = true
			objs = append(objs, e.Obj)
		}
	}
	return objs
}

// Procs returns the distinct process ids appearing in the history, in
// first-appearance order.
func (h *History) Procs() []int {
	seen := make(map[int]bool)
	var procs []int
	for _, e := range h.events {
		if !seen[e.Proc] {
			seen[e.Proc] = true
			procs = append(procs, e.Proc)
		}
	}
	return procs
}

// Prefix returns the history consisting of the first k events. Every prefix
// of a well-formed history is well-formed.
func (h *History) Prefix(k int) *History {
	if k > len(h.events) {
		k = len(h.events)
	}
	if k < 0 {
		k = 0
	}
	p := New()
	for i := 0; i < k; i++ {
		e := h.events[i]
		p.events = append(p.events, e)
		if e.Kind == KindInvoke {
			p.invIdx = append(p.invIdx, -1)
			p.open[e.Proc] = len(p.events) - 1
		} else {
			p.invIdx = append(p.invIdx, p.open[e.Proc])
			p.open[e.Proc] = -1
		}
	}
	return p
}

// Reset empties the history and keeps its buffers, so a monitor window can
// be refilled without allocating.
func (h *History) Reset() {
	h.events = h.events[:0]
	h.invIdx = h.invIdx[:0]
	clear(h.open)
}

// Clone returns a deep copy.
func (h *History) Clone() *History {
	return h.Prefix(len(h.events))
}

// Truncate discards every event with index >= n, restoring the history to
// its state after exactly n Appends. It is the undo primitive of the
// in-place exploration engine (package explore): advancing a configuration
// appends events, undoing truncates them. The backing array is retained, so
// an append after a truncate reuses memory instead of allocating.
func (h *History) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	for len(h.events) > n {
		i := len(h.events) - 1
		e := h.events[i]
		h.events = h.events[:i]
		if e.Kind == KindRespond {
			// Removing a response reopens its invocation (recorded at
			// append time, so undo is O(1) per event).
			h.open[e.Proc] = h.invIdx[i]
		} else {
			// Removing an invocation leaves the process with no pending
			// operation (it had none before invoking).
			h.open[e.Proc] = -1
		}
		h.invIdx = h.invIdx[:i]
	}
}

// AppendFingerprint appends a canonical byte encoding of the event sequence
// to b and returns the extended slice. Two histories have equal encodings
// iff they have equal event sequences; the encoding is used by the
// configuration fingerprints of package sim and allocates only when b needs
// to grow.
func (h *History) AppendFingerprint(b []byte) []byte {
	for _, e := range h.events {
		b = append(b, byte(e.Kind))
		b = spec.AppendFPInt(b, int64(e.Proc))
		b = spec.AppendFPInt(b, int64(len(e.Obj)))
		b = append(b, e.Obj...)
		if e.Kind == KindInvoke {
			b = spec.AppendFPInt(b, int64(len(e.Op.Method)))
			b = append(b, e.Op.Method...)
			b = append(b, byte(e.Op.NArgs)) // NArgs <= 2 by construction
			for i := 0; i < e.Op.NArgs; i++ {
				b = spec.AppendFPInt(b, e.Op.Args[i])
			}
		} else {
			b = spec.AppendFPInt(b, e.Resp)
		}
	}
	return b
}

// Sequential reports whether the history is sequential: it consists of
// alternating invocation/matching-response pairs, starting with an
// invocation, with at most the final invocation unmatched (the paper's
// definition for finite histories).
func (h *History) Sequential() bool {
	for i := 0; i < len(h.events); i += 2 {
		if h.events[i].Kind != KindInvoke {
			return false
		}
		if i+1 < len(h.events) {
			r := h.events[i+1]
			if r.Kind != KindRespond || r.Proc != h.events[i].Proc || r.Obj != h.events[i].Obj {
				return false
			}
		}
	}
	return true
}

// String renders the history one event per line.
func (h *History) String() string {
	var b strings.Builder
	for i, e := range h.events {
		fmt.Fprintf(&b, "%3d  %s\n", i, e)
	}
	return b.String()
}
