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
	"math"
	"slices"
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
	recs []record
	// objs and methods intern the names the records index, in first-use
	// order. Truncate leaves them alone, so an entry may outlive its events.
	objs, methods []string
	// pending maps a process to one more than the index of its pending
	// invocation, or 0.
	pending procSlots
}

// record is the stored form of an Event: 32 bytes and no pointers, so a
// reserved history is neither scanned by the collector nor wider than it has
// to be (DESIGN.md "History storage").
type record struct {
	// a and b are an invocation's arguments; a response keeps its value in a.
	a, b int64
	proc int
	// link is, for a response, the index of the matching invocation event
	// (Truncate reopens it in O(1)); an invocation's is 0.
	link int32
	// obj and method index History.objs and History.methods.
	obj    uint16
	method uint8
	// meta is the Kind in the low two bits and NArgs above them.
	meta uint8
}

// The limits of the record format. Append refuses the first event past one.
const (
	maxObjs    = 1 << 16
	maxMethods = 1 << 8
	// denseProcs bounds a procSlots' slice; larger and negative process ids
	// fall back to its map.
	denseProcs = 1024
)

// maxEvents is the largest event count a link can index. It is a variable
// only so that the limit test can reach it.
var maxEvents = math.MaxInt32

func (r *record) kind() Kind { return Kind(r.meta & 3) }

// op decodes the invocation r.
func (h *History) op(r *record) spec.Op {
	return spec.Op{Method: h.methods[r.method], Args: [2]int64{r.a, r.b}, NArgs: int(r.meta >> 2)}
}

// decode rebuilds the event r stores. Fields that do not belong to the
// event's kind (an invocation's Resp, a response's Op) are not stored.
func (h *History) decode(r *record) Event {
	e := Event{Kind: r.kind(), Proc: r.proc, Obj: h.objs[r.obj]}
	if e.Kind == KindInvoke {
		e.Op = h.op(r)
	} else {
		e.Resp = r.a
	}
	return e
}

// lookup returns name's index in tab, or len(tab) when it is not interned
// yet. A linear scan: the histories of this repository name a handful of
// objects and methods.
func lookup(tab []string, name string) int {
	for i, s := range tab {
		if s == name {
			return i
		}
	}
	return len(tab)
}

// procSlots maps a process id to an int32, 0 standing for none: the pending
// table of a History and the open-row table of an OpTable. Ids in
// [0, denseProcs) index dense; the rest are kept in far.
type procSlots struct {
	dense []int32
	far   map[int]int32
}

func (s *procSlots) at(proc int) int32 {
	if uint(proc) < uint(len(s.dense)) {
		return s.dense[proc]
	}
	return s.far[proc]
}

func (s *procSlots) set(proc int, v int32) {
	switch {
	case uint(proc) < uint(len(s.dense)):
		s.dense[proc] = v
	case uint(proc) < denseProcs:
		s.dense = append(s.dense, make([]int32, proc+1-len(s.dense))...)
		s.dense[proc] = v
	case v == 0:
		delete(s.far, proc)
	default:
		if s.far == nil {
			s.far = make(map[int]int32)
		}
		s.far[proc] = v
	}
}

// New returns an empty history.
func New() *History { return &History{} }

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
	if cap(h.recs) >= n {
		return
	}
	recs := make([]record, len(h.recs), n)
	copy(recs, h.recs)
	h.recs = recs
}

// Len returns the number of events.
func (h *History) Len() int { return len(h.recs) }

// Event returns the i-th event.
func (h *History) Event(i int) Event { return h.decode(&h.recs[i]) }

// Kind, Proc and Resp return one field of event i without building the
// Event; Resp is meaningful only for a response.
func (h *History) Kind(i int) Kind  { return h.recs[i].kind() }
func (h *History) Proc(i int) int   { return h.recs[i].proc }
func (h *History) Resp(i int) int64 { return h.recs[i].a }

// Op returns the operation event i invokes or, for a response, the
// operation it answers.
func (h *History) Op(i int) spec.Op {
	r := &h.recs[i]
	if r.kind() == KindRespond {
		r = &h.recs[r.link]
	}
	return h.op(r)
}

// Events returns a copy of the event sequence.
func (h *History) Events() []Event {
	cp := make([]Event, len(h.recs))
	for i := range h.recs {
		cp[i] = h.decode(&h.recs[i])
	}
	return cp
}

// Append adds an event, enforcing well-formedness: a process may not invoke
// while it has a pending operation, and a response must match the process's
// pending invocation (same object). It checks a response's object and
// dispatches to Invoke or Respond, the primitives that check the rest. A
// refused event leaves the history as it was.
func (h *History) Append(e Event) error {
	switch e.Kind {
	case KindInvoke:
		return h.Invoke(e.Proc, e.Obj, e.Op)
	case KindRespond:
		if at := h.pending.at(e.Proc); at != 0 && h.objs[h.recs[at-1].obj] != e.Obj {
			return fmt.Errorf("process p%d responds on %s but pending invocation at event %d is on %s",
				e.Proc, e.Obj, at-1, h.objs[h.recs[at-1].obj])
		}
		return h.Respond(e.Proc, e.Resp)
	}
	return fmt.Errorf("invalid event kind %d", int(e.Kind))
}

// errFull refuses the event past the most a history indexes.
func errFull() error {
	return fmt.Errorf("history is full: %d events is the most it indexes", maxEvents)
}

// push stores r, an event the caller knows to keep the history well-formed,
// and fills in what its position decides: a response's link and object and
// the process's pending state. at is pending.at(r.proc).
func (h *History) push(r record, at int32) {
	if r.kind() == KindInvoke {
		h.pending.set(r.proc, int32(len(h.recs))+1)
	} else {
		r.link, r.obj = at-1, h.recs[at-1].obj
		h.pending.set(r.proc, 0)
	}
	h.recs = append(h.recs, r)
}

// Invoke appends an invocation event. Invoke and Respond are the primitives
// that validate an event and store it; a refused event leaves h as it was.
func (h *History) Invoke(proc int, obj string, op spec.Op) error {
	if len(h.recs) >= maxEvents {
		return errFull()
	}
	if at := h.pending.at(proc); at != 0 {
		return fmt.Errorf("process p%d invokes %s on %s while operation at event %d is pending",
			proc, op, obj, at-1)
	}
	o, method := lookup(h.objs, obj), lookup(h.methods, op.Method)
	switch {
	case o == maxObjs:
		return fmt.Errorf("object %s is one more than the %d distinct objects a history holds", obj, maxObjs)
	case method == maxMethods:
		return fmt.Errorf("method %s is one more than the %d distinct methods a history holds", op.Method, maxMethods)
	case uint(op.NArgs) > uint(len(op.Args)):
		return fmt.Errorf("operation %s has %d arguments, outside 0..%d", op.Method, op.NArgs, len(op.Args))
	}
	if o == len(h.objs) {
		h.objs = append(h.objs, obj)
	}
	if method == len(h.methods) {
		h.methods = append(h.methods, op.Method)
	}
	h.push(record{a: op.Args[0], b: op.Args[1], proc: proc,
		obj: uint16(o), method: uint8(method), meta: uint8(KindInvoke) | uint8(op.NArgs)<<2}, 0)
	return nil
}

// Respond appends the response to proc's pending invocation, on that
// invocation's object. It is a primitive, like Invoke: Append dispatches a
// response event to it once the event's object matches.
func (h *History) Respond(proc int, resp int64) error {
	if len(h.recs) >= maxEvents {
		return errFull()
	}
	at := h.pending.at(proc)
	if at == 0 {
		return fmt.Errorf("process p%d responds with no pending invocation", proc)
	}
	h.push(record{a: resp, proc: proc, meta: uint8(KindRespond)}, at)
	return nil
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
	var t OpTable
	t.Fill(h)
	return t.Ops
}

// OpTable is a history's operation table in caller-owned buffers: a monitor
// writes its window's rows as the events arrive and reuses the table from
// window to window. The zero OpTable is empty and ready to use.
type OpTable struct {
	// Ops are the operations in invocation order (what Operations returns).
	Ops []Operation
	// ByRes lists the completed operations, as indexes into Ops, in
	// response-event order.
	ByRes []int
	// Events is the number of events the rows hold.
	Events int
	// open maps a process to one more than the index of its open row, or 0;
	// mixed is set by a row on another object than the first row's.
	open  procSlots
	mixed bool
}

// Reset empties the table and keeps its buffers.
func (t *OpTable) Reset() {
	t.Ops, t.ByRes, t.Events, t.mixed = t.Ops[:0], t.ByRes[:0], 0, false
	clear(t.open.dense)
	clear(t.open.far)
}

// SingleObject reports whether all rows are on one object.
func (t *OpTable) SingleObject() bool { return !t.mixed }

// Fill rebuilds the table from h, reusing the buffers: once they have grown
// to the history's size a Fill allocates nothing.
func (t *OpTable) Fill(h *History) {
	t.Reset()
	if n := len(h.recs)/2 + 1; cap(t.Ops) < n {
		t.Ops = make([]Operation, 0, n)
		t.ByRes = make([]int, 0, n)
	}
	t.Extend(h, 0, len(h.recs))
}

// Extend writes the rows of h's events [from, to) as the next events, from
// h's records, checking nothing again. Every invocation pending in h at from
// must have its open row here, as in a table that has seen h from event 0.
func (t *OpTable) Extend(h *History, from, to int) {
	for i := from; i < to; i++ {
		if r := &h.recs[i]; r.kind() == KindInvoke {
			t.invoke(r.proc, h.objs[r.obj], h.op(r))
		} else {
			t.respond(t.open.at(r.proc), r.a)
		}
	}
}

// Invoke adds the row of proc's invocation of op on obj as the next event.
// Invoke and Respond are the table's validating writers. They refuse what
// History.Append refuses for well-formedness, in the same words, and leave
// the table as it was; the limits of the record format are History's.
func (t *OpTable) Invoke(proc int, obj string, op spec.Op) error {
	if at := t.open.at(proc); at != 0 {
		return fmt.Errorf("process p%d invokes %s on %s while operation at event %d is pending",
			proc, op, obj, t.Ops[at-1].Inv)
	}
	if uint(op.NArgs) > uint(len(op.Args)) {
		return fmt.Errorf("operation %s has %d arguments, outside 0..%d", op.Method, op.NArgs, len(op.Args))
	}
	t.invoke(proc, obj, op)
	return nil
}

// invoke opens proc's row for an invocation known to be well-formed.
func (t *OpTable) invoke(proc int, obj string, op spec.Op) {
	t.mixed = t.mixed || len(t.Ops) > 0 && obj != t.Ops[0].Obj
	// Filled in place: appending the literal would copy the 88-byte row.
	t.Ops = append(t.Ops, Operation{})
	o := &t.Ops[len(t.Ops)-1]
	o.Proc, o.Obj, o.Op, o.Inv, o.Res = proc, obj, op, t.Events, -1
	t.open.set(proc, int32(len(t.Ops)))
	t.Events++
}

// Respond closes proc's open row, on obj, with resp as the next event.
func (t *OpTable) Respond(proc int, obj string, resp int64) error {
	at := t.open.at(proc)
	if at == 0 {
		return fmt.Errorf("process p%d responds with no pending invocation", proc)
	}
	if o := &t.Ops[at-1]; o.Obj != obj {
		return fmt.Errorf("process p%d responds on %s but pending invocation at event %d is on %s",
			proc, obj, o.Inv, o.Obj)
	}
	t.respond(at, resp)
	return nil
}

// respond closes row at-1, the one open holds at, with resp.
func (t *OpTable) respond(at int32, resp int64) {
	o := &t.Ops[at-1]
	o.Res, o.Resp = t.Events, resp
	t.open.set(o.Proc, 0)
	t.ByRes = append(t.ByRes, int(at-1))
	t.Events++
}

// History materializes the table's events as a standalone history, each
// invocation at its row's Inv and each response at its Res. The record
// format's limits are met here: it fails at the first event past one.
func (t *OpTable) History() (*History, error) {
	h := &History{recs: make([]record, 0, t.Events)}
	var err error
	for i, j := 0, 0; err == nil && len(h.recs) < t.Events; {
		if i < len(t.Ops) && t.Ops[i].Inv == len(h.recs) {
			err = h.Invoke(t.Ops[i].Proc, t.Ops[i].Obj, t.Ops[i].Op)
			i++
		} else {
			err = h.Respond(t.Ops[t.ByRes[j]].Proc, t.Ops[t.ByRes[j]].Resp)
			j++
		}
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// project returns the events among the first k that keep accepts (all of
// them when keep is nil) as a new history. A projection or prefix of a
// well-formed history is well-formed, so nothing is checked again; the name
// tables are copied whole, which keeps the records' indexes valid.
func (h *History) project(k int, keep func(*record) bool) *History {
	p := &History{objs: slices.Clone(h.objs), methods: slices.Clone(h.methods)}
	if keep == nil {
		p.recs = make([]record, 0, k)
	}
	for i := range h.recs[:k] {
		if r := &h.recs[i]; keep == nil || keep(r) {
			p.push(*r, p.pending.at(r.proc))
		}
	}
	return p
}

// ByObject returns the projection H|obj as a new history (event indices are
// renumbered within the projection).
func (h *History) ByObject(obj string) *History {
	id := lookup(h.objs, obj)
	return h.project(len(h.recs), func(r *record) bool { return int(r.obj) == id })
}

// ObjectEventIndex returns, for the projection H|obj, the index in H of each
// projected event. It lets callers translate a per-object event count t_o
// back to a global event count t (the construction in Lemma 7).
func (h *History) ObjectEventIndex(obj string) []int {
	id := lookup(h.objs, obj)
	var idx []int
	for i := range h.recs {
		if int(h.recs[i].obj) == id {
			idx = append(idx, i)
		}
	}
	return idx
}

// Objects returns the distinct object names appearing in the history, in
// first-appearance order.
func (h *History) Objects() []string {
	seen := make([]bool, len(h.objs))
	var objs []string
	for i := range h.recs {
		if id := h.recs[i].obj; !seen[id] {
			seen[id] = true
			objs = append(objs, h.objs[id])
		}
	}
	return objs
}

// SingleObject reports whether all events are on one object.
func (h *History) SingleObject() bool {
	for i := 1; i < len(h.recs); i++ {
		if h.recs[i].obj != h.recs[0].obj {
			return false
		}
	}
	return true
}

// Procs returns the distinct process ids appearing in the history, in
// first-appearance order.
func (h *History) Procs() []int {
	seen := make(map[int]bool)
	var procs []int
	for i := range h.recs {
		if p := h.recs[i].proc; !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	return procs
}

// Prefix returns the history consisting of the first k events. Every prefix
// of a well-formed history is well-formed.
func (h *History) Prefix(k int) *History {
	return h.project(max(0, min(k, len(h.recs))), nil)
}

// Clone returns a deep copy.
func (h *History) Clone() *History {
	return h.Prefix(len(h.recs))
}

// Truncate discards every event with index >= n, restoring the history to
// its state after exactly n Appends. It is the undo primitive of the
// in-place exploration engine (package explore): advancing a configuration
// appends events, undoing truncates them. The backing array is retained, so
// an append after a truncate reuses memory instead of allocating.
func (h *History) Truncate(n int) {
	n = max(n, 0)
	for len(h.recs) > n {
		i := len(h.recs) - 1
		r := &h.recs[i]
		if r.kind() == KindRespond {
			// Removing a response reopens its invocation (recorded at
			// append time, so undo is O(1) per event).
			h.pending.set(r.proc, r.link+1)
		} else {
			// Removing an invocation leaves the process with no pending
			// operation (it had none before invoking).
			h.pending.set(r.proc, 0)
		}
		h.recs = h.recs[:i]
	}
}

// AppendFingerprint appends a canonical byte encoding of the event sequence
// to b and returns the extended slice. Two histories have equal encodings
// iff they have equal event sequences; the encoding is used by the
// configuration fingerprints of package sim and allocates only when b needs
// to grow.
func (h *History) AppendFingerprint(b []byte) []byte {
	for i := range h.recs {
		r := &h.recs[i]
		b = append(b, byte(r.kind()))
		b = spec.AppendFPInt(b, int64(r.proc))
		obj := h.objs[r.obj]
		b = spec.AppendFPInt(b, int64(len(obj)))
		b = append(b, obj...)
		if r.kind() == KindRespond {
			b = spec.AppendFPInt(b, r.a)
			continue
		}
		b = spec.AppendFPOp(b, h.op(r))
	}
	return b
}

// Sequential reports whether the history is sequential: it consists of
// alternating invocation/matching-response pairs, starting with an
// invocation, with at most the final invocation unmatched (the paper's
// definition for finite histories).
func (h *History) Sequential() bool {
	for i := 0; i < len(h.recs); i += 2 {
		if h.recs[i].kind() != KindInvoke {
			return false
		}
		// A response right after an invocation matches it iff it links to it.
		if i+1 < len(h.recs) {
			if r := &h.recs[i+1]; r.kind() != KindRespond || int(r.link) != i {
				return false
			}
		}
	}
	return true
}

// String renders the history one event per line.
func (h *History) String() string {
	var b strings.Builder
	for i := range h.recs {
		fmt.Fprintf(&b, "%3d  %s\n", i, h.decode(&h.recs[i]))
	}
	return b.String()
}
